"""Column text for the record encoders: each value of a column as a
fixed-width block of UTF-8 bytes padded with PAD, a byte UTF-8 never holds,
so that a row of blocks with every PAD deleted is the row's text.

A float is written as Python's repr writes it. Its digits are the shortest
that round-trip, chosen by Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) for a whole array at once in uint64 arithmetic. The
array path covers what repr writes positionally, 1e-4 <= |x| < 1e16, and
+-0.0; there the paper's scale 10^-k is the integer 2^-k 5^-k, so the
products it rounds to odd are computed exactly. Every other float
(exponent form, subnormal, nan, +-inf) is written by the caller's `escape`.

Digits are written four at a time, by gathering 4-byte entries of one
table: each group 0000..9999 in full, or with its leading or its trailing
zeros as PAD; then a sign and a point.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

import numpy as np

PAD = 0xFF
# Texts that labels() encodes at a time.
LABEL_ROWS = 8192

_U64 = np.uint64


def _group_table() -> np.ndarray:
    """The table of 4-byte entries, starting at the offsets below."""
    group = np.arange(10_000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], np.uint16)  # the weight of each digit
    digits = (group // place % 10 + ord("0")).astype(np.uint8)
    leading, trailing = group < place, group % (place * 10) == 0
    first, last = np.arange(4) == 0, np.arange(4) == 3
    forms = [
        digits,
        np.where(leading, PAD, digits),
        np.where(leading & ~last, PAD, digits),
        np.where(trailing, PAD, digits),
        np.where(trailing & ~first, PAD, digits),
        np.array([[PAD] * 4, [ord("-")] + [PAD] * 3, [ord(".")] + [PAD] * 3], np.uint8),
    ]
    return np.concatenate(forms).view(np.uint32).ravel()


_GROUPS = _group_table()
# offsets: without leading zeros (0 as nothing, 0 as "0"), without trailing
# zeros (0 as nothing, 0 as "0"); then plus (nothing), minus and point
_LEAD, _LEAD0, _TRAIL, _TRAIL0, _PLUS, _POINT = 10_000, 20_000, 30_000, 40_000, 50_000, 50_002

# Schubfach's k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for a power of
# two, with the shift and 5^-k that scale its significand by 2^q 10^-k; rows
# by biased exponent, then again for powers of two. The rows used, those of
# positional values, have 0 <= -k <= 20.
_Q = np.tile(np.arange(2048) - 1075, 2)
_K = (_Q * 1262611 - np.repeat([0, 524031], 2048)) >> 22
_SHIFT = (1 - _Q + _K).clip(0, 63).astype(_U64)
_POW5 = 5.0 ** (-_K).clip(0, 20)  # exact in float64
# by e + 20, for digits d and exponent e, -20 <= e <= 1, of a value d 10^e:
# the divisors and factors that split it into its integer part and its 20
# fraction digits, as 12 and then 8
_SPLIT = np.array([[10 ** min(max(n, 0), 18) for n in (-e, e, -e - 12, e + 12, e + 20)]
                   for e in range(-20, 2)]).T.copy()


def _rop(high: np.ndarray, low: np.ndarray, shift: np.ndarray, back: np.ndarray) -> np.ndarray:
    """(high 2^64 + low) / 2^shift rounded to odd, for back = 64 - shift:
    the floor, with bit 0 set where the division leaves a remainder."""
    return (low >> shift) | (high << back) | ((low << back) != 0)


def shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits d and exponent e, x = d 10^e, of positive
    doubles 1e-4 <= x < 1e16 given as their bits. Of several shortest, d is
    the nearest to x, the even one on a tie. d may end in zeros. Each
    intermediate ends at its last use, as a whole float block holds many."""
    cp = bits & _U64(2**52 - 1)
    irregular = cp == 0  # the next double down is nearer than the next up
    row = (bits >> 52).astype(np.intp)
    row += irregular * 2048
    k, shift, pow5 = _K[row], _SHIFT[row], _POW5[row]
    del row
    # The paper's vb is cb 2^q 10^-k rounded to odd, cb = 4c. Here 10^-k is
    # 2^-k 5^-k, so vb is 2 cb 5^-k / 2^shift, shift = 1 - q + k <= 47. The
    # product 2 cb 5^-k < 2^103 is exact in two words: the low one wraps,
    # and the float product is within 2^51 of it, so the high one is a rint.
    cp |= _U64(2**52)
    cp <<= 3
    step = pow5.astype(_U64)  # 5^-k, then 4 5^-k below
    low = cp * step
    high = cp.astype(np.float64)
    del cp
    high *= pow5
    del pow5
    high -= low.astype(np.float64)
    high *= 2.0**-64
    high = np.rint(high).astype(_U64)
    # 2 cbl 5^-k and 2 cbr 5^-k, with cbl = cb - 2 (cb - 1 for a power of
    # two) and cbr = cb + 2
    step <<= 2
    down = step >> irregular
    del irregular
    back = 64 - shift
    vb = _rop(high, low, shift, back)
    lower = _rop(high - (low < down), low - down, shift, back)
    del down
    lower += bits & 1
    low += step  # now 2 cbr 5^-k
    upper = _rop(high + (low < step), low, shift, back)
    del high, low, step, shift, back
    upper -= bits & 1
    # s = vb / 4 and s' = s / 10, at one digit fewer; u = 4 s, w = u + 4,
    # and u' = 40 s', w' = u' + 40
    sp = vb // 40
    u1_in, w1_in = lower <= sp * 40, sp * 40 + 40 <= upper
    shorter = u1_in != w1_in
    del u1_in
    u = vb & _U64(2**64 - 4)
    u_in, w_in = lower <= u, u + 4 <= upper
    del lower, upper
    near = (vb > u + 2) | ((vb == u + 2) & ((vb & 4) != 0))
    del u
    d = np.where(shorter, sp + w1_in, (vb >> 2) + np.where(u_in != w_in, w_in, near))
    return d, k + shorter


def _groups(values: np.ndarray, n: int) -> list[np.ndarray]:
    """The last n 4-digit groups of non-negative int64 values, most
    significant first."""
    out = []
    for _ in range(n):
        head = values // 10_000
        out.append(values - head * 10_000)
        values = head
    return out[::-1]


def _trim(groups: list, form: int, form0: int) -> list:
    """Turn groups, taken from the side whose zeros are left out, into their
    codes in place: a group with only zero groups before it in `form`
    (_LEAD or _TRAIL), the last in `form0`, which writes all zeros as 0."""
    zero = True
    for j, group in enumerate(groups):
        was_zero = group == 0
        group += zero * (form0 if j == len(groups) - 1 else form)
        zero = zero & was_zero
    return groups


def _gather(columns: list) -> np.ndarray:
    """Rows of the table entries whose codes are the columns. Each column
    is let go once gathered, so the list ends up holding None."""
    text = np.empty((len(columns[0]), len(columns)), np.uint32)
    for j, column in enumerate(columns):
        columns[j] = None
        text[:, j] = _GROUPS[column]
    return text.view(np.uint8)


def _digits(values: np.ndarray) -> list:
    """Codes of non-negative int64 values as str writes them, as many
    groups each as the largest needs."""
    return _trim(_groups(values, (len(str(int(values.max()))) + 3) // 4), _LEAD, _LEAD0)


def ints(values: np.ndarray) -> np.ndarray:
    """Blocks of non-negative ints, as str writes them."""
    return _gather(_digits(values.astype(np.int64)))


def floats(values: np.ndarray, escape) -> np.ndarray:
    """Blocks of at least 32 bytes: each value as repr writes it, or as
    `escape` writes it where repr would not write it positionally. Each
    intermediate ends at its last use."""
    x = values.ravel()
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    others = np.flatnonzero(~fast & (magnitude != 0))
    d, e = shortest(np.where(fast, magnitude.view(_U64), _U64(0x3FF0000000000000)))  # 1.0
    del fast
    d = d.view(np.int64)
    d *= magnitude != 0
    del magnitude
    e += 20  # the column of _SPLIT
    whole, d = np.divmod(d, _SPLIT[0][e])  # d: the fraction's digits, the last -e of them
    whole *= _SPLIT[1][e]
    top, d = np.divmod(d, _SPLIT[2][e])
    top *= _SPLIT[3][e]
    d *= _SPLIT[4][e]
    del e
    codes = [_PLUS + (x.view(_U64) >> 63), *_digits(whole), _POINT]
    del whole
    fraction = _groups(top, 3) + _groups(d, 2)  # its first 20 digits
    del top, d
    codes += _trim(fraction[::-1], _TRAIL, _TRAIL0)[::-1]
    del fraction
    text = _gather(codes)
    width = text.shape[-1]
    if others.size:
        raw = [escape(v).encode().ljust(width, b"\xff") for v in x[others].tolist()]
        text[others] = np.frombuffer(b"".join(raw), np.uint8).reshape(others.size, width)
    return text.reshape(*values.shape, width)


def labels(texts: Iterable[str]) -> np.ndarray:
    """A table of texts, one padded block each, to gather with `take`. The
    texts are encoded LABEL_ROWS at a time, so that no list of the bytes of
    them all is held."""
    texts, parts = iter(texts), []
    while raw := [text.encode() for text in islice(texts, LABEL_ROWS)]:
        size = np.fromiter(map(len, raw), np.intp, len(raw))
        # numpy pads with NULs; PAD goes past each text's length, so its own NULs stay
        part = np.array(raw, f"S{max(1, int(size.max()))}").view(np.uint8).reshape(len(raw), -1)
        del raw
        part[np.arange(part.shape[1]) >= size[:, None]] = PAD
        parts.append(part)
    width = max((part.shape[1] for part in parts), default=1)
    table = np.full((sum(map(len, parts)), width), PAD, np.uint8)
    at = 0
    for part in parts:
        table[at:at + len(part), :part.shape[1]] = part
        at += len(part)
    return table.ravel().view(f"V{width}")

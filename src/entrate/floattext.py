"""Exact float-to-text conversion on numpy arrays, for the CSV and JSON
tables of entrate.sweep.write_table.

float_slots writes each float of an array as "%.17g" writes it (CSV) or
as json.dump writes it (float.__repr__'s shortest round-trip digits, and
NaN, Infinity, -Infinity), in a fixed slot of SLOT bytes whose zero bytes
are gaps to drop. The digits come from the float's bits in 64-bit integer
arithmetic (no float rounding), so they are the bytes Python prints.
"""

from __future__ import annotations

import numpy as np

# The float kernel converts binary to decimal exactly, on uint64 arrays. A
# double x = f * 2**e (f < 2**53) times 10**s is f * 5**s * 2**(e + s): one
# product of two 64-bit words, then a right shift that rounds half to even.
# With 0 <= s <= 27 (5**27 < 2**63) this covers 10**-11 <= |x| < 10**17 at
# CSV's 17 digits and, as JSON also tries 15 digits, |x| < 10**15 for JSON.
# Every operand is a uint64: numpy's legacy promotion would turn an int64
# array or a negative Python int into float64 arithmetic.
_U64 = np.uint64
_LOW = np.nextafter(1e-11, 1.0)         # the double 1e-11 is below 10**-11
_HIGH = {False: 1e17, True: 1e15}
_POW5 = _U64(5) ** np.arange(28, dtype=_U64)
_POW5_HIGH, _POW5_LOW = _POW5 >> _U64(32), _POW5 & _U64(2**32 - 1)
#: A number's slot: four words, 32 bytes; a zero byte is a gap.
SLOT = 32


#: "0000" to "9999" as ASCII digits in the low four bytes of a word, the
#: first digit lowest; and, for each of the four 4-digit groups after the
#: leading digit of 17, the place of a group's last nonzero digit among the
#: 17 (0 for a group of zeros)
_N4 = np.arange(10000, dtype=np.uint32)
_ASCII4 = (_N4 // 1000 + 48 | (_N4 // 100 % 10 + 48) << 8 | (_N4 // 10 % 10 + 48) << 16
           | (_N4 % 10 + 48) << 24).astype(_U64)
_LAST4 = (4 - (_N4 % 10 == 0).astype(np.int8) - (_N4 % 100 == 0) - (_N4 % 1000 == 0)
          + np.array([[0], [4], [8], [12]], np.int8))
_LAST4[:, 0] = 0


def _layout_masks(json_: bool) -> tuple[np.ndarray, ...]:
    """What lays out d * 10**(exp10 - 16) whose last nonzero digit is
    digit `last` of its 17, at index (exp10 + 11) * 17 + last, for
    -11 <= exp10 <= 17: the masks of the body bytes taken from the digits
    (before the dot) and from the digits moved up a byte (after it), the
    bytes put in (the dot, and the exponent in bytes 18-21), each as three
    words, and the head word ("0." and zeros in bytes 1-5)."""
    exp10, last = np.divmod(np.arange(29 * 17), 17)
    exp10 -= 11
    fixed = (exp10 >= -4) & (exp10 < (16 if json_ else 17))
    small = fixed & (exp10 < 0)
    # digits before the dot; 18: none, as the head's "0." holds the dot
    point = np.where(small, 18, np.where(fixed, exp10 + 1, 1))
    if json_:       # a fixed number keeps a digit after its dot
        last = np.where(fixed & ~small, np.maximum(last, point), last)
    # bytes shown: the digits to the last nonzero one, with the dot before it
    end = np.where(small, last + 1, np.where(last >= point, last + 2, point))[:, None]
    point, place = point[:, None], np.arange(24)
    exponent = np.zeros((exp10.size, 24), np.int64)
    exponent[:, 18:22] = np.stack([np.full_like(exp10, ord("e")),
                                   np.where(exp10 < 0, ord("-"), ord("+")),
                                   48 + abs(exp10) // 10, 48 + abs(exp10) % 10], axis=1)
    head = np.array([0, *b"0.000", 0, 0]) * ((place[:8] <= 1 - exp10[:, None]) & small[:, None])

    def words(b):
        return np.ascontiguousarray(b.astype(np.uint8)).view("<u8").astype(_U64).T.copy()
    return (words(0xFF * ((place < point) & (place < end))),
            words(0xFF * ((place > point) & (place < end))),
            words(ord(".") * ((place == point) & (place < end)) | exponent * ~fixed[:, None]),
            words(head)[0])


_LAYOUT = {False: _layout_masks(False), True: _layout_masks(True)}


def _slots(texts: list[str]) -> np.ndarray:
    """ASCII texts of at most SLOT bytes as rows of slots."""
    return np.frombuffer(b"".join(t.encode().ljust(SLOT, b"\0") for t in texts),
                         np.uint8).reshape(len(texts), SLOT)


#: 0, -0, inf, -inf and NaN as "%.17g" (CSV) and json.dump write them
_SPECIAL = {False: _slots(["0", "-0", "inf", "-inf", "nan"]),
            True: _slots(["0.0", "-0.0", "Infinity", "-Infinity", "NaN"])}


def float_slots(x: np.ndarray, json_: bool) -> np.ndarray:
    """Each float of x as a slot (a row of SLOT bytes): its text as "%.17g"
    writes it (CSV) or as json.dump does (float.__repr__; NaN, Infinity,
    -Infinity), then zero bytes. The floats in the kernel's exact range
    are converted by _exact_slots, zeros and non-finite ones come from a
    table, and only the other finite floats are formatted by Python."""
    magnitude = np.abs(x)
    exact = (magnitude >= _LOW) & (magnitude < _HIGH[json_])
    if exact.all():
        return _exact_slots(x, json_)
    out = np.zeros((x.size, SLOT), np.uint8)
    where = np.flatnonzero(exact)
    out[where] = _exact_slots(x[where], json_)
    special = (magnitude == 0) | ~np.isfinite(x)
    where = np.flatnonzero(special)
    nan = np.isnan(x[where])
    # rows of _SPECIAL: 0, -0, inf, -inf, nan (whatever its sign bit)
    out[where] = _SPECIAL[json_][np.where(nan, 4, np.where(magnitude[where] == 0, 0, 2)
                                          + (np.signbit(x[where]) & ~nan))]
    for i in np.flatnonzero(~(exact | special)).tolist():
        text = (float.__repr__ if json_ else "%.17g".__mod__)(float(x[i])).encode()
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _exact_slots(x: np.ndarray, json_: bool) -> np.ndarray:
    """float_slots for floats in the exact range. CSV's digits are the 17
    nearest to x (half to even). JSON's are float.__repr__'s: the nearest
    15-digit decimal, else the nearest 16-digit one, else the 17 digits,
    taking the first that lies within half the gap to the neighbouring
    double (inclusive when x's mantissa is even, as a reader rounds ties to
    even). Below a power of two that gap is half as wide, so there the
    16-digit neighbour above x is tried when the nearest, below, misses
    (2**-24 prints as 5.960464477539063e-08, not ...062e-08)."""
    bits = np.ascontiguousarray(x).view(_U64)
    f = (bits & _U64(2**52 - 1)) | _U64(2**52)
    e = (bits >> _U64(52)).astype(np.int64) % 2048 - 1075
    # 10**16 <= x * 10**s < 10**17, once a power of ten that log10 rounds
    # across is put right
    s = np.minimum(np.maximum(16 - np.floor(np.log10(np.abs(x))).astype(np.int64), 0), 27)
    d, _, up, _ = _scaled(f, e, s)
    below = d - up < _U64(10**16)
    miss = np.flatnonzero(below | (d - up >= _U64(10**17)))
    if miss.size:
        s[miss] += np.where(below[miss], 1, -1)
        d[miss] = _scaled(f[miss], e[miss], s[miss])[0]
    if json_:
        narrow = f == _U64(2**52)       # below x the gap is half as wide
        d15, rem, up, mask = _scaled(f, e, s - 2)
        ok15 = _round_trips(rem, up, mask, _POW5[s - 2], f, narrow)
        d16, rem, up, mask = _scaled(f, e, s - 1)
        ok16 = _round_trips(rem, up, mask, _POW5[s - 1], f, narrow)
        above = (narrow & ~ok16 & ~up
                 & (mask - rem + _U64(1) <= _POW5[s - 1] >> _U64(1)))
        d = np.where(ok15, d15 * _U64(100), np.where(ok16 | above, (d16 + above) * _U64(10), d))
    carry = d == _U64(10**17)            # rounded up to the next power of ten
    return _layout(np.where(carry, _U64(10**16), d), 16 - s + carry, x < 0, json_)


def _scaled(f: np.ndarray, e: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """f * 2**e * 10**s rounded half to even, for f < 2**53 and
    0 <= s <= 27, with what the rounding measured: (d, rem, up, mask), the
    exact value being (d - up) + rem / 2**r, where mask = 2**r - 1 and
    1 <= r <= 64."""
    r = -(e + s)
    if (r < 1).any():                   # an integer product: shift f up instead
        scale = np.maximum(1 - r, 0)
        r, f = r + scale, f << scale.astype(_U64)
    r = r.astype(_U64)
    # the 128-bit product f * 5**s (f < 2**60) from 32-bit halves
    a, b = f >> _U64(32), f & _U64(2**32 - 1)
    c, d = _POW5_HIGH.take(s), _POW5_LOW.take(s)
    low = b * d
    mid = a * d + b * c                 # < 2**60 + 2**63
    lo = low + (mid << _U64(32))
    hi = a * c + (mid >> _U64(32)) + (lo < low)
    # the shifts stay below 64, where numpy's shifts are defined
    left, right = _U64(64) - r, r - _U64(1)
    q = hi << left | lo >> right >> _U64(1)
    mask = _U64(2**64 - 1) >> left
    rem = lo & mask
    up = rem > (_U64(1) << right) - (q & _U64(1))      # half to even
    return q + up, rem, up, mask


def _round_trips(rem: np.ndarray, up: np.ndarray, mask: np.ndarray, p: np.ndarray,
                 f: np.ndarray, narrow: np.ndarray) -> np.ndarray:
    """Whether _scaled's d reads back as the double f * 2**e: its distance
    to the double, in units of 2**-r, is at most half the gap to the
    neighbouring double, which in those units is 5**s / 2 (exclusive for
    an odd f), or 5**s / 4 below a power of two (narrow)."""
    distance = np.where(up, mask - rem + _U64(1), rem)
    limit = np.where(narrow & ~up, p >> _U64(2), (p - (f & _U64(1))) >> _U64(1))
    return distance <= limit


def _layout(d: np.ndarray, exp10: np.ndarray, negative: np.ndarray, json_: bool) -> np.ndarray:
    """The slots of the numbers d * 10**(exp10 - 16) (10**16 <= d < 10**17),
    negated where negative: fixed notation for -4 <= exp10 < 17 (CSV) or
    16 (JSON), else scientific with at least two exponent digits; trailing
    zeros dropped, but JSON keeps a digit after the dot of a fixed number.

    A slot is four little-endian words: the head (sign, and "0." and zeros
    in front of a fixed number below 1), then three words of body: the
    digits, those after the dot moved up a byte to make room for it, the
    trailing zeros masked, and the exponent; _LAYOUT holds the masks."""
    lead = d // _U64(10**16)
    top = d // _U64(10**8)
    a, b = top - lead * _U64(10**8), d - top * _U64(10**8)     # digits 1-8 and 9-16
    a1, b1 = a // _U64(10**4), b // _U64(10**4)
    a2, b2 = a - a1 * _U64(10**4), b - b1 * _U64(10**4)
    # the place of the last nonzero digit (the first one never is zero)
    last = np.maximum(np.maximum(_LAST4[0].take(a1), _LAST4[1].take(a2)),
                      np.maximum(_LAST4[2].take(b1), _LAST4[3].take(b2)))
    da = _ASCII4.take(a1) | _ASCII4.take(a2) << _U64(32)
    db = _ASCII4.take(b1) | _ASCII4.take(b2) << _U64(32)
    # the 17 digits as bytes 0-16, and as bytes 1-17
    digits = ((lead + _U64(48)) | da << _U64(8), da >> _U64(56) | db << _U64(8), db >> _U64(56))
    moved = (digits[0] << _U64(8), digits[1] << _U64(8) | digits[0] >> _U64(56), db >> _U64(48))
    index = (exp10 + 11) * 17 + last
    before, after, put, head = _LAYOUT[json_]
    body = [digits[w] & before[w].take(index) | moved[w] & after[w].take(index)
            | put[w].take(index) for w in range(3)]
    head = head.take(index) | np.where(negative, _U64(ord("-")), _U64(0))
    return np.stack([head, *body], axis=1).astype("<u8", copy=False).view(np.uint8)

"""Exact float-to-text conversion on numpy arrays, for the CSV and JSON
tables of entrate.sweep.write_table: float_slots writes each float of an
array as "%.17g" (CSV) or json.dump (float.__repr__'s shortest round-trip
digits, and NaN, Infinity, -Infinity) write it, in a slot of SLOT bytes
whose zero bytes are gaps to drop. The digits come from the float's bits
in 64-bit integer arithmetic (no float rounding): the bytes Python prints.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# The float kernel converts binary to decimal exactly, on uint64 arrays: a
# double x = f * 2**e (f < 2**53) times 10**s is f * 5**s * 2**(e + s), one
# 64-bit product shifted right by r = -(e + s), the rest a remainder. 0 <= s
# <= 27 (5**27 < 2**63) covers 10**-11 <= |x| < 10**17, and |x| < 10**15 for
# JSON's 15 digits. Every operand is a uint64: numpy's legacy promotion
# would turn an int64 array or a negative Python int into float64 arithmetic.
_U64 = np.uint64
_LOW = np.nextafter(1e-11, 1.0)         # the double 1e-11 is below 10**-11
_HIGH = {False: 1e17, True: 1e15}
_POW5 = _U64(5) ** np.arange(28, dtype=_U64)
_POW5_HIGH, _POW5_LOW = _POW5 >> _U64(32), _POW5 & _U64(2**32 - 1)
#: A number's slot: four words, 32 bytes; a zero byte is a gap.
SLOT = 32

#: s in the binade of biased exponent b: 16 - k for 10**k <= 2**(b - 1023)
#: (a float floor, 0.01 off integers here), less one from the least f with
#: f * 2**(b - 1075) >= 10**(k + 1) on, _DECADE_F[b]
_B = np.arange(1023 - 40, 1023 + 60)
_K = np.floor((_B - 1023) * math.log10(2)).astype(np.int64)
_DECADE, _DECADE_F = np.zeros(2048, np.int64), np.full(2048, 2**53, _U64)
_DECADE[_B] = 16 - _K
_DECADE_F[_B] = [min(math.ceil(Fraction(10) ** int(k + 1) * Fraction(2) ** int(1075 - b)), 2**53)
                 for b, k in zip(_B, _K)]

#: Group k of the four 4-digit groups after the leading digit of 17 at its
#: value + 10000 k: its ASCII digits (the first lowest) in the low half, the
#: place of its last nonzero digit among the 17 (0 for none) in the high one
_N4 = np.arange(10000, dtype=np.uint32)
_DIGITS4 = (np.tile(_N4 // 1000 + 48 | (_N4 // 100 % 10 + 48) << 8 | (_N4 // 10 % 10 + 48) << 16
                    | (_N4 % 10 + 48) << 24, 4).astype(_U64)
            | np.where(_N4 == 0, 0, 4 - (_N4 % 10 == 0) - (_N4 % 100 == 0) - (_N4 % 1000 == 0)
                       + 4 * np.arange(4)[:, None]).astype(_U64).ravel() << _U64(32))
_GROUP = np.array([10000, 30000], _U64)[:, None]    # 10000 k for groups k = 1, 3


def _layout_masks(json_: bool) -> np.ndarray:
    """Column (exp10 + 11) * 17 + last lays out d * 10**(exp10 - 16) whose
    last nonzero digit of 17 is `last`: masks of the body bytes from the
    digits (before the dot) and from them moved up a byte (after it), the
    bytes put in (the dot; the exponent in bytes 18-21), three words each,
    and the head ("0." and zeros)."""
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
    exponent = np.zeros((exp10.size, 24), np.uint8)
    exponent[:, 18:22] = np.frombuffer(b"".join(b"e%+03d" % e for e in exp10),
                                       np.uint8).reshape(-1, 4)
    head = b"".join(b"0.".ljust(1 - e, b"0").rjust(8, b"\0") if s else bytes(8)
                    for e, s in zip(exp10, small))

    def words(b):
        return np.ascontiguousarray(b.astype(np.uint8)).view("<u8").astype(_U64).T
    return np.concatenate([words(0xFF * ((place < point) & (place < end))),
                           words(0xFF * ((place > point) & (place < end))),
                           words(ord(".") * ((place == point) & (place < end))
                                 | exponent * ~fixed[:, None]),
                           np.frombuffer(head, "<u8")[None]])


_LAYOUT = {False: _layout_masks(False), True: _layout_masks(True)}


#: 0, -0, inf, -inf and NaN as "%.17g" (CSV) and json.dump write them, as slots
_SPECIAL = {json_: np.frombuffer(b"".join(t.ljust(SLOT, b"\0") for t in texts.split()),
                                 np.uint8).reshape(5, SLOT)
            for json_, texts in ((False, b"0 -0 inf -inf nan"),
                                 (True, b"0.0 -0.0 Infinity -Infinity NaN"))}


def float_slots(x: np.ndarray, json_: bool) -> np.ndarray:
    """Each float of x as a slot (a row of SLOT bytes): its text as "%.17g"
    (CSV) or json.dump (JSON) write it, then zero bytes; from the kernel in
    its exact range, a table for 0 and non-finite floats, else Python."""
    magnitude = np.abs(x)
    exact = (magnitude >= _LOW) & (magnitude < _HIGH[json_])
    if exact.all():
        return _exact_slots(x, json_)
    out = np.zeros((x.size, SLOT), np.uint8)
    out[exact] = _exact_slots(x[exact], json_)
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
    """float_slots for floats in the exact range, from one product each."""
    bits = np.ascontiguousarray(x).view(_U64)
    f = bits & _U64(2**52 - 1)
    f |= _U64(2**52)
    b = (bits >> _U64(52) & _U64(2047)).view(np.int64)    # the biased exponent
    s = _DECADE.take(b)
    s -= f >= _DECADE_F.take(b)
    b -= 1075
    d = _shortest(*_scaled(f, b, s), s, f == _U64(2**52)) if json_ else _scaled(f, b, s)[0]
    del f, b                            # a smaller heap for _layout
    carry = d == _U64(10**17)            # rounded up to the next power of ten
    d[carry] = _U64(10**16)
    s -= carry
    return _layout(d, np.subtract(16, s, out=s), x < 0, json_)


def _scaled(f: np.ndarray, e: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """f * 2**e * 10**s (f < 2**53, 0 <= s <= 27) = F + frac / 2**64 to the
    nearest, half to even: (F + up, frac, up, 64 - r, r) for the product's
    shift r, 1 <= r <= 62 where F >= 10**16 (there 2**r < 2**62.6)."""
    r = -(e + s)
    if (r < 1).any():                   # an integer product: shift f up instead
        scale = np.maximum(1 - r, 0)
        r, f = r + scale, f << scale.astype(_U64)
    r = r.view(_U64)
    # c * 2**64 + b = f * 5**s (f < 2**60) from (a * 2**32 + b) (c * 2**32 + lo)
    a, b = f >> _U64(32), f & _U64(2**32 - 1)
    c, lo = _POW5_HIGH.take(s), _POW5_LOW.take(s)
    mid = a * lo
    lo *= b
    b *= c
    mid += b                            # < 2**60 + 2**63
    c *= a
    np.left_shift(mid, _U64(32), out=b)
    b += lo
    c += b < lo
    c += mid >> _U64(32)
    F = b >> r                          # 1 <= r <= 62: numpy's shifts are defined
    sh = _U64(64) - r
    c <<= sh
    F |= c
    b <<= sh
    up = b > _U64(2**63) - (F & _U64(1))
    F += up
    return F, b, up, sh, r


def _shortest(d: np.ndarray, frac: np.ndarray, up: np.ndarray, sh: np.ndarray, r: np.ndarray,
              s: np.ndarray, narrow: np.ndarray) -> np.ndarray:
    """JSON's digits for x * 10**s = F + frac / 2**64 (F = d - up): a 15-,
    else a 16-digit decimal (the nearer of two, half to even), else d, within
    half the gap to the next double: L = 5**s / 2 in units of 2**-r, 5**s / 4
    below a power of two (narrow). The decimal below is t + frac / 2**64 away
    (t = F % 10), the one above 9 - t + (2**64 - frac) / 2**64: t + frac /
    2**64 <= L / 2**r reads t < L // 2**r + (frac < (L % 2**r + 1) 2**(64 - r))."""
    half = _POW5.take(s) >> _U64(1)
    below = (half >> narrow.view(np.uint8)) + _U64(1)   # the bound below x, + 1
    below = (below >> r) + ((below << sh) > frac)
    above = (half >> r) + ((half << sh) > ~frac)
    nonzero = frac != 0
    del frac, sh, r
    t16 = d - up
    q16 = t16 // _U64(10)
    t16 -= q16 * _U64(10)
    q15 = q16 // _U64(10)
    t15 = (q16 - q15 * _U64(10)) * _U64(10) + t16
    # the decimals above that read back (one 15-digit one at most, in a gap < 100)
    up15 = t15 + above > _U64(99)
    up16 = t16 + above > _U64(9)
    up16 &= (t16 + (q16 & _U64(1) | nonzero) > _U64(5)) | (t16 >= below)
    for q, t, q_up, unit in ((q16, t16, up16, 10), (q15, t15, up15, 100)):
        q += q_up
        q *= _U64(unit)
        np.copyto(d, q, where=(t < below) | q_up)
    return d


def _layout(d: np.ndarray, exp10: np.ndarray, negative: np.ndarray, json_: bool) -> np.ndarray:
    """The slots of d * 10**(exp10 - 16) (10**16 <= d < 10**17), negated
    where negative: fixed for -4 <= exp10 < 17 (CSV) or 16 (JSON), else
    scientific; no trailing zeros, but JSON keeps a digit after a fixed
    dot. Four little-endian words: the head (sign in byte 2, "0." and
    zeros), then the body: the digits, the exponent (_LAYOUT's masks).
    Overwrites exp10."""
    top = d // _U64(10**8)                             # digits 0-8
    half = np.empty((2, d.size), _U64)                 # digits 1-8, 9-16
    np.subtract(d, top * _U64(10**8), out=half[1])
    lead = top // _U64(10**8)
    np.subtract(top, lead * _U64(10**8), out=half[0])
    # the four groups of four digits, group k at its value + 10000 k
    first = half // _U64(10**4)
    half -= first * _U64(10**4)
    first[1] += _U64(20000)
    half += _GROUP
    first, text = _DIGITS4.take(first.view(np.int64)), _DIGITS4.take(half.view(np.int64))
    last = np.maximum(first, text) >> _U64(32)         # the larger word has the larger place
    exp10 *= 17
    exp10 += np.maximum(last[0], last[1]).view(np.int64) + 11 * 17
    text <<= _U64(32)                                  # as ASCII
    text |= first & _U64(2**32 - 1)
    # the 17 digits as bytes 0-16 of the body's three words, and moved up a byte
    masks, out, word = _LAYOUT[json_], np.empty((d.size, 4), _U64), np.empty(d.size, _U64)
    lead += _U64(48)
    lead |= text[0] << _U64(8)
    digits = (lead, text[0] >> _U64(56) | text[1] << _U64(8), text[1] >> _U64(56))
    moved = (lead << _U64(8), digits[1] << _U64(8) | text[0] >> _U64(48), text[1] >> _U64(48))
    for w, (body, after) in enumerate(zip(digits, moved)):
        body &= np.take(masks[w], exp10, out=word, mode="clip")
        after &= np.take(masks[3 + w], exp10, out=word, mode="clip")
        body |= after
        np.bitwise_or(body, np.take(masks[6 + w], exp10, out=word, mode="clip"),
                      out=out[:, w + 1])
    np.bitwise_or(np.take(masks[9], exp10, out=word, mode="clip"),
                  negative * _U64(ord("-") << 16), out=out[:, 0])
    return out.view(np.uint8)

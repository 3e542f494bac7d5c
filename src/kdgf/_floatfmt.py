"""Shortest round-trip text of float64 values, built in bulk with numpy.

:func:`render` returns, for a block of float64 values, exactly the bytes
that ``repr`` (or ``json.dumps``) of each value would give, each followed by
a separator, without making a Python object per value; :func:`numbered_rows`
does the same for the rows of a trajectory CSV.

The decimal digits come from the common path of Ryu (Ulf Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), run on uint64 arrays.  That path
covers the normal, finite, nonzero values below 2**50 in magnitude, except
powers of two and the values where 2**q divides 4m (Ryu's "vr has trailing
zeros", dyadic values such as 0.375 or 3.0): 99.6 % of a trajectory's values
or more.  Every other value is rendered by the caller's per-value function
(``repr`` or ``json.dumps``).  The text is laid out as CPython lays out
``repr``: fixed notation for a decimal point position in (-4, 16], with
``.0`` on integral values, and ``d[.ddd]e±XX`` otherwise.

Each value's text is assembled in a 32-byte slot, stored as four big-endian
uint64 limbs and padded with NUL bytes: the sign, digits and decimal point
right-aligned in bytes 0-23 (with the ``e`` of exponent notation), the
exponent's sign and digits in bytes 24-27, the separator in bytes 28-31.
Dropping every NUL byte of the slots leaves the text.  Every arithmetic
operand is uint64, so numpy 1.x and 2.x promote alike.
"""
from __future__ import annotations

import collections
import functools

import numpy as np

_U = np.uint64
_SLOT = 32         # bytes of a slot
_MAX_DIGITS = 20   # digit counts the layout tables cover
_SEP = 4           # bytes of a separator, the last of a slot
_FIELD = 24        # bytes of the mantissa field, the first three limbs
_NO_DOT = _FIELD   # dot position that inserts no dot
_ZEROS = _U(0x3030303030303030)  # eight ASCII '0'
_POW10 = np.array([10**k for k in range(19)], dtype=_U)
_FAST_LIMIT = 1072  # largest biased exponent with q >= 2: |x| < 2**50
_ALL_STEPS = 4     # digits every value is tested for dropping one by one
_J = 121           # bit at which every product of mv and a multiplier is read
_LIMB = 28         # bits per limb of the multiply; 55 x 28 bit products fit in uint64
_MASK = _U(2**_LIMB - 1)
# Sums to zero over six limbs (2**29 in limb t is 2 in limb t + 1; limb 5
# holds -2) and keeps each limb of X - 2M' nonnegative, as 2M'_t <= 2**29 - 2.
_BIAS = [_U(2**29)] + [_U(2**29 - 2)] * 4


_Tables = collections.namedtuple("_Tables", "q e10 limbs low dot minus mantissa exponent")


@functools.cache
def _tables():
    """Per biased exponent: q (0 where the exponent is off the fast path),
    e10 = q + e2 offset by 400, and Ryu's multiplier
    M = floor(5**i * 2**(125 - bitlen(5**i))), i = -e2 - q, shifted left by
    121 - j as five 28-bit limbs (least significant first), so that Ryu's
    floor(m * M / 2**j) is floor(m * M' / 2**121); j lies in [118, 121] on
    the fast path.  Built on first use, in a few milliseconds."""
    pow5 = [1]
    multipliers = []
    q_of = np.zeros(2048, dtype=_U)
    e10_of = np.zeros(2048, dtype=_U)
    for biased in range(1, _FAST_LIMIT + 1):
        e2 = biased - 1077
        q = ((-e2 * 732923) >> 20) - (-e2 > 1)  # floor(log10(5**-e2)), less one
        while len(pow5) <= -e2 - q:
            pow5.append(pow5[-1] * 5)
        p = pow5[-e2 - q]
        bits = p.bit_length()
        m = (p << (125 - bits)) if bits <= 125 else (p >> (bits - 125))
        multipliers.append(m << (_J - (q - bits + 125)))
        q_of[biased], e10_of[biased] = q, q + e2 + 400
    lo, hi = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in multipliers),
                           dtype="<u8").reshape(-1, 2).astype(_U).T
    limbs = np.zeros((5, 2048), dtype=_U)
    for t in range(5):
        shift = _LIMB * t
        part = hi >> _U(shift - 64) if shift >= 64 else lo >> _U(shift)
        if shift < 64 < shift + _LIMB:
            part |= hi << _U(64 - shift)
        limbs[t, 1:_FAST_LIMIT + 1] = part & _MASK
    # LOW[b]: the low b bytes of the mantissa field; DOT[k] and MINUS[k]:
    # a '.' or a '-' in byte k from the right; index _NO_DOT holds no byte.
    low = [(1 << (8 * b)) - 1 for b in range(_FIELD + 1)]
    dot = [0x2E << (8 * k) for k in range(_FIELD)] + [0]
    minus = [0x2D << (8 * k) for k in range(_FIELD)] + [0]

    def field(values):
        return np.array([[(v >> (64 * (2 - w))) & (2**64 - 1) for v in values]
                         for w in range(3)], dtype=_U)
    tables = _Tables(q_of, e10_of, limbs, field(low), field(dot), field(minus),
                     *_layout_tables())
    for table in tables:
        table.flags.writeable = False
    return tables


def _layout_tables():
    """The layout of a value's digits, and its exponent word.

    The layout of n digits with the decimal point ``point`` digits from
    their start depends on ``point`` only through the notation while it is
    -4 or less, or above 16; it is one column of four rows, indexed by
    (clip(point, -4, 17) + 4) * _MAX_DIGITS + n: the power of ten that scales
    the digits, the dot position and length of the mantissa field, and what
    turns the last digit into an 'e'.  The exponent word (exponent notation
    only) is indexed by point + 400."""
    mantissa = [[0] * (22 * _MAX_DIGITS) for _ in range(4)]
    for point in range(-4, 18):
        expo = not -4 < point <= 16
        for n in range(1, _MAX_DIGITS):
            # fixed notation of an integral value: the digits scaled to end
            # in one '0' after the point; exponent notation: one more
            # digit, made the 'e'
            grow = 1 if expo else max(point - n + 1, 0)
            m = n + grow
            if expo:
                dot, length = (m - 1, m + 1) if m > 2 else (_NO_DOT, m)
            else:
                dot, length = m - point, max(point, 1) + 1 + m - point
            if grow < len(_POW10) and length < _FIELD:
                for row, value in zip(mantissa, (10**grow, dot, length,
                                                 (ord("e") - ord("0")) * expo)):
                    row[(point + 4) * _MAX_DIGITS + n] = value
    exponent = [0 if -4 < point <= 16 else
                int.from_bytes(f"{point - 1:+03d}".encode().ljust(4, b"\0"), "big") << 32
                for point in range(-400, 112)]
    return np.array(mantissa, dtype=_U), np.array(exponent, dtype=_U)


def sep_word(sep: bytes) -> int:
    """A separator of at most four bytes as the low word of a slot."""
    return int.from_bytes(sep.ljust(_SEP, b"\0"), "big")


_COMMA, _NEWLINE = sep_word(b","), sep_word(b"\n")


def render(values, seps, fallback=repr) -> bytes:
    """The text of each value of ``values`` followed by its separator, in
    row-major order.  ``seps`` holds ``sep_word`` separators and broadcasts
    against ``values``; ``fallback`` renders a value off the fast path."""
    return _join(_slots(values, seps, fallback))


def numbered_rows(block, first: int) -> bytes:
    """CSV rows of a 2-d ``block``: the row's number, counting from
    ``first``, then its values as ``repr`` renders them, all followed by a
    comma but the last, followed by a newline."""
    rows, cols = block.shape
    seps = np.full(cols, _COMMA, dtype=_U)
    seps[-1] = _NEWLINE
    numbers = _int_slots(np.arange(first, first + rows), _COMMA)
    return _join(np.concatenate([numbers[:, None], _slots(block, seps)], axis=1))


def _join(slot_bytes) -> bytes:
    """The texts of a block of slots, in order."""
    return slot_bytes.tobytes().translate(None, b"\0")


def _slots(values, seps, fallback=repr) -> np.ndarray:
    """(..., 32) uint8 slots of the values of ``values``: see :func:`render`."""
    # the bits are read only from a native, contiguous float64 copy
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.reshape(-1).view(_U)
    q = _tables().q.take((bits >> _U(52)) & _U(0x7FF))
    mv = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(2)
    # off the path: q < 2, and the values where 2**q divides mv, whose digits
    # Ryu's common path could leave with a trailing zero
    slow = (q < _U(2)) | ((q < _U(63))
                          & ((mv & ((_U(1) << np.minimum(q, _U(63))) - _U(1))) == _U(0)))
    # and powers of two, whose lower neighbour is half as far as the upper
    slow |= mv == _U(2**54)
    del q, mv
    # a slow value is formatted as 0.5000000000000001, then replaced by its fallback text
    bits = np.where(slow, _U(0x3FE0000000000001), bits)
    digits, exp10 = _shortest(bits)
    out = _layout(digits, exp10, bits >> _U(63))
    out[:, 3] |= np.broadcast_to(np.asarray(seps, dtype=_U), x.shape).reshape(-1)
    slot_bytes = out.view(np.uint8).reshape(*x.shape, _SLOT)
    where = np.flatnonzero(slow)
    if where.size:
        texts = [fallback(v).encode().rjust(_SLOT - _SEP, b"\0")
                 for v in x.reshape(-1)[where].tolist()]
        slot_bytes.reshape(-1, _SLOT)[where, :_SLOT - _SEP] = np.frombuffer(
            b"".join(texts), dtype=np.uint8).reshape(-1, _SLOT - _SEP)
    return slot_bytes


def _int_slots(ints, sep: int) -> np.ndarray:
    """(n, 32) uint8 slots of nonnegative integers below 10**17, each
    followed by the separator ``sep`` (a ``sep_word``)."""
    d = np.asarray(ints, dtype=_U)
    n_digits = np.maximum(np.searchsorted(_POW10, d, side="right"), 1)
    out = np.empty((d.size, 4), dtype=">u8")
    out[:, :3] = _place(_digit_chars(d), np.full(d.size, _NO_DOT), n_digits,
                        np.zeros(d.size, dtype=_U)).T
    out[:, 3] = sep
    return out.view(np.uint8)


def _shortest(bits):
    """(digits, exponent) of the shortest decimal digits * 10**exponent that
    reads back as each float64 of ``bits``, by Ryu's common path."""
    tables = _tables()
    biased = (bits >> _U(52)) & _U(0x7FF)
    mv = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(2)
    low, high = mv & _MASK, mv >> _U(_LIMB)
    del mv
    # v = X, X + 2M' and X - 2M' for X = mv * M', added up limb by limb from
    # the least significant, each sum carried into the next; a column of X
    # (a 28-bit limb of each of mv and M') stays below 2**57
    carry = np.zeros((3, bits.size), dtype=_U)
    last = None
    for t in range(5):
        m = tables.limbs[t].take(biased)
        carry >>= _U(_LIMB)
        carry += low * m if last is None else low * m + high * last
        twice = m << _U(1)
        carry[1] += twice
        carry[2] += _BIAS[t] - twice
        last = m
    # vr, vp, vm = floor(v / 2**121); the top column of X - 2M' holds the
    # bias's -2
    v = (carry >> _U(_J - 4 * _LIMB)) + ((high * last) << _U(5 * _LIMB - _J))
    v[2] -= _U(2 << (5 * _LIMB - _J))
    digits, removed = _remove_digits(*v)
    return digits, tables.e10.take(biased) + removed  # the exponent, offset by 400


def _remove_digits(vr, vp, vm):
    """Ryu's common path: drop the last r digits of vr, r the largest with
    vp // 10**r > vm // 10**r, and round up where the dropped digits are at
    least half of 10**r or the rest equals vm's.  Returns (digits, r)."""
    ten = _U(10)
    removed = np.zeros_like(vr)
    hi, lo = vp, vm
    for _ in range(_ALL_STEPS):  # the condition holds for r up to some r0, then never
        hi, lo = hi // ten, lo // ten
        removed += hi > lo
    live = np.flatnonzero(removed == _U(_ALL_STEPS))
    hi, lo = hi[live], lo[live]
    while live.size:  # the few values that may drop more digits
        hi, lo = hi // ten, lo // ten
        more = hi > lo
        removed[live] += more
        live, hi, lo = live[more], hi[more], lo[more]
    scale = _POW10[removed]
    digits = vr // scale
    round_up = (vr - digits * scale) << _U(1) >= scale
    return digits + ((digits == vm // scale) | round_up), removed


def _digit_chars(d):
    """(3, n) limbs of the 24-character zero-padded decimal text of each
    d < 10**18, most significant limb first."""
    chars = np.empty((3, d.size), dtype=_U)
    top = d // _U(10**16)
    tens = top // _U(10)
    chars[0] = _ZEROS | (tens << _U(8)) | (top - tens * _U(10))
    chars[2] = d - top * _U(10**16)
    chars[1] = chars[2] // _U(10**8)
    chars[2] -= chars[1] * _U(10**8)
    _eight_chars(chars[1:])
    return chars


def _eight_chars(y):
    """Turn each y < 10**8 into its eight ASCII digits, in place, first
    digit in the top byte: 4-digit, then 2-digit, then 1-digit lanes, each
    split by a multiply and a shift that divide every lane at once."""
    q = y // _U(10**4)
    y -= q * _U(10**4)
    y |= q << _U(32)
    for mult, shift, mask, base, move in ((5243, 19, 0x0000007F0000007F, 100, 16),
                                          (103, 10, 0x000F000F000F000F, 10, 8)):
        q = (y * _U(mult)) >> _U(shift)
        q &= _U(mask)
        y -= q * _U(base)
        y |= q << _U(move)
    y |= _ZEROS


def _place(chars, dot, length, negative):
    """Mantissa fields, (3, n) limbs, made in place of ``chars``: a '.'
    inserted ``dot`` bytes from the right, cut to ``length`` bytes, then a
    '-' before it where ``negative``."""
    tables = _tables()
    below = chars & np.take(tables.low, dot, axis=1)
    chars ^= below
    spill = chars[1:] >> _U(56)  # the bytes above the dot move up one byte
    chars <<= _U(8)
    chars[:2] |= spill
    chars |= below
    chars |= np.take(tables.dot, dot, axis=1)
    chars &= np.take(tables.low, length, axis=1)
    chars |= np.take(tables.minus, length, axis=1) * negative
    return chars


def _layout(digits, exp10, negative):
    """(n, 4) big-endian slots, separator word still zero, of
    digits * 10**(exp10 - 400), negative where ``negative``."""
    tables = _tables()
    n_digits = np.searchsorted(_POW10, digits, side="right").astype(_U)
    point = exp10 + n_digits  # offset by 400
    out = np.empty((digits.size, 4), dtype=">u8")
    out[:, 3] = tables.exponent.take(point)
    key = (np.minimum(np.maximum(point, _U(396)), _U(417)) - _U(396)) * _U(_MAX_DIGITS) + n_digits
    scale, dot, length, e_char = np.take(tables.mantissa, key, axis=1)
    chars = _digit_chars(digits * scale)
    chars[2] += e_char
    out[:, :3] = _place(chars, dot, length, negative).T
    return out

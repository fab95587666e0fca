"""Row text for the CLI: numpy columns to exactly the bytes ``%`` would print.

Each formatter turns one or more columns of one kind into a *cell
matrix*: uint8, one matrix row per character slot and one column per
value.  A slot a value does not use holds :data:`PAD`, which no UTF-8
text contains, so the slots need not be contiguous: a sign, the digits
and a decimal point each sit in fixed slots, and the unused ones vanish
when :func:`join_rows` strips the padding.

Integers print as ``'%d' % v``.  Floats print as ``'%.17g' % v``: for
finite 1e-4 <= |v| < 1e16 the 17 digits come from integer arithmetic on
the binary value (:func:`_digits17`); zeros print as ``0``/``-0``, and any
other value through ``%`` one at a time.
"""

from __future__ import annotations

import numpy as np

#: The padding byte: 0xFF never occurs in UTF-8.
PAD = np.uint8(0xFF)
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
#: 5**k for every scale k = 16 - E an estimate of E = floor(log10 |v|) can give.
_POW5 = np.array([5 ** k for k in range(22)], dtype=np.uint64)
_D_MIN, _D_END = _U64(10 ** 16), _U64(10 ** 17)
_ZERO, _MINUS, _POINT = (np.uint8(ord(c)) for c in "0-.")
#: 1..17, the rank of each of the 17 digits, as a column.
_RANKS = np.arange(1, 18, dtype=np.uint8)[:, None]
#: "false" and "true" by slot, the bool as the column.
_BOOL_SLOTS = np.frombuffer(b"ftarlusee\xff", np.uint8).reshape(5, 2)


def _scaled(m, e, E):
    """floor(a·10^(16−E)) and its round-half-even, for a = m·2^e, m < 2^53.

    P = m·5^k (k = 16 − E ≤ 21) is formed exactly in 128 bits from 32-bit
    limbs, as two uint64 halves; then a·10^k = P·2^(e+k), so the result is
    P shifted left, or shifted right with the dropped bits deciding the
    rounding.  Both results are below 2^64 when E is at most one off.
    """
    k = (16 - E).astype(np.intp)
    c = _POW5[k]
    m0, m1 = m & _LOW32, m >> _U64(32)
    lo = m0 * (c & _LOW32)
    mid = m0 * (c >> _U64(32))
    mid += m1 * (c & _LOW32)
    hi = m1 * (c >> _U64(32)) + (mid >> _U64(32))
    mid <<= _U64(32)
    lo += mid
    hi += lo < mid
    s = e + k
    right = np.maximum(-s, 1).astype(np.uint64)  # 1..63 where s < 0
    floor = (lo >> right) | (hi << (_U64(64) - right))
    half = (lo >> (right - _U64(1))) & _U64(1)
    sticky = (lo & ((_U64(1) << (right - _U64(1))) - _U64(1))) != 0
    exact = s >= 0
    floor[exact] = lo[exact] << s[exact].astype(np.uint64)
    up = (half.astype(bool) & (sticky | (floor & _U64(1)).astype(bool))) & ~exact
    return floor, floor + up


def _digits17(a):
    """(D, X) with ``'%.17g' % a`` = the digits of D, 10^16 ≤ D < 10^17, at
    decimal exponent X, for float64 1e-4 ≤ a < 1e16.

    floor(log10 a) is only an estimate of the exponent E: a value whose
    unrounded scaled value falls outside [10^16, 10^17) had E one off and is
    redone with E corrected.  No float arithmetic decides a digit.  Rounding
    never carries D to 10^17 here: that needs a within 5·10^(E−17) below
    10^(E+1), and for every decade in range the largest double below
    10^(E+1) is further away, so X = E.
    """
    mant, ex = np.frexp(a)
    m = (mant * 2.0 ** 53).astype(np.uint64)
    e = ex.astype(np.int64) - 53
    E = np.floor(np.log10(a)).astype(np.int64)
    D = np.empty(a.size, np.uint64)
    todo = np.arange(a.size)
    while todo.size:
        floor, rounded = _scaled(m[todo], e[todo], E[todo])
        off = (floor >= _D_END).astype(np.int64) - (floor < _D_MIN)
        ok = off == 0
        D[todo[ok]] = rounded[ok]
        E[todo] += off
        todo = todo[~ok]
    return D, E


def float_text(cols) -> np.ndarray:
    """The cell matrix of ``'%.17g' % v`` for every value of the float columns.

    Slots: the sign; "0." and up to three zeros that open |v| < 1; the 17
    digits, with a slot for the decimal point after each digit some value
    puts it after; then, if any value is not finite or outside [1e-4, 1e16),
    its ``%`` text.
    """
    x = np.concatenate(cols, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0
    D, X = _digits17(np.where(fast, a, 1.0))
    D[zero] = 0  # X is 0, that of the stand-in 1.0: one integer digit "0"
    top = D // _U64(10 ** 9)
    halves = np.array([top, D - top * _U64(10 ** 9)], np.uint32)  # 8 and 9 digits
    digits = np.empty((17, x.size), np.uint8)
    for r in range(9):
        q = halves // np.uint32(10)
        d = halves - q * np.uint32(10)
        halves = q
        digits[16 - r] = d[1]
        if r < 8:
            digits[7 - r] = d[0]
    kept = ((digits != 0) * _RANKS).max(axis=0)  # digits without trailing zeros
    ndigits = np.maximum(kept, X + 1)  # or up to the decimal point
    digits += _ZERO
    np.copyto(digits, PAD, where=_RANKS > ndigits)
    point = np.where(kept > X + 1, X, -1)  # the digit the point follows

    slots = [np.where(np.signbit(x), _MINUS, PAD)[None]]
    low = int(X.min(initial=0))
    if low < 0:  # "0." then -X - 1 zeros
        slots.append(np.where(X < 0, _ZERO, PAD)[None])
        slots.append(np.where(X < 0, _POINT, PAD)[None])
        slots += [np.where(X < -k, _ZERO, PAD)[None] for k in range(1, -low)]
    high = int(point.max(initial=-1))
    slots.append(digits[:max(low, 0)])
    for j in range(max(low, 0), high + 1):
        slots += [digits[j:j + 1], np.where(point == j, _POINT, PAD)[None]]
    slots.append(digits[max(low, high + 1, 0):])
    cells = np.concatenate(slots)

    slow = np.flatnonzero(~fast & ~zero)
    if slow.size:
        cells[:, slow] = PAD
        other = str_text(["%.17g" % v for v in x[slow].tolist()])
        extra = np.full((other.shape[0], x.size), PAD, np.uint8)
        extra[:, slow] = other
        cells = np.concatenate([cells, extra])
    return cells


def int_text(cols) -> np.ndarray:
    """The cell matrix of ``'%d' % v`` for every value of the integer columns:
    the sign, then the digits right-aligned, leading zeros as padding."""
    mags, negs = [], []
    for c in cols:
        mag = c.astype(np.uint64)
        neg = c < 0
        np.subtract(_U64(0), mag, out=mag, where=neg)  # |v|, exact at -2^63
        mags.append(mag)
        negs.append(neg)
    q = np.concatenate(mags)
    width = int(np.searchsorted(_POW10, q.max(initial=0), side="right")) or 1
    cells = np.empty((1 + width, q.size), np.uint8)
    cells[0] = np.where(np.concatenate(negs), _MINUS, PAD)
    for r in range(width):
        q10 = q // _U64(10)
        d = (q - q10 * _U64(10)).astype(np.uint8) + _ZERO
        cells[width - r] = np.where((q > 0) | (r == 0), d, PAD)
        q = q10
    return cells


def bool_text(col) -> np.ndarray:
    """The cell matrix of ``true``/``false``."""
    return _BOOL_SLOTS[:, col.astype(bool).view(np.uint8)]


def str_text(strings: list[str]) -> np.ndarray:
    """The cell matrix of the given strings, UTF-8 encoded."""
    enc = [s.encode() for s in strings]
    length = np.fromiter(map(len, enc), np.intp, len(enc))
    width = max(1, int(length.max(initial=0)))
    chars = np.array(enc, dtype=f"S{width}").view(np.uint8).reshape(len(enc), width).T
    return np.where(np.arange(width)[:, None] < length, chars, PAD)


def join_rows(cells: list[np.ndarray], literals: list[str]) -> str:
    """The rows literals[0] cells[0] literals[1] … cells[-1] literals[-1]:
    stacked slot by slot, transposed once and stripped of padding."""
    lits = [np.frombuffer(s.encode(), np.uint8)[:, None] for s in literals]
    pieces = [lits[0]]
    for cell, lit in zip(cells, lits[1:]):
        pieces += [cell, lit]
    stacked = np.empty((sum(map(len, pieces)), cells[0].shape[1]), np.uint8)
    at = 0
    for p in pieces:
        stacked[at:at + len(p)] = p
        at += len(p)
    stacked = stacked[(stacked != PAD).any(axis=1)]  # slots no row uses
    return stacked.T.tobytes().translate(None, bytes([PAD])).decode()

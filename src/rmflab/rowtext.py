"""Row text for the CLI: numpy columns to exactly the bytes ``%`` would print.

Each formatter turns one or more columns of one kind into a *cell
matrix*: uint8, one matrix row per character slot and one column per
value.  A slot a value does not use holds :data:`PAD`, which no UTF-8
text contains, so the slots need not be contiguous: a sign, the digits
and a decimal point each sit in fixed slots, and the unused ones vanish
when :func:`join_rows` strips the padding.

Integers print as ``'%d' % v``.  Floats print as ``'%.17g' % v``: for
finite 1e-4 <= |v| < 1e16 the 17 digits come from an exact double-double
product of v and a power of ten (:func:`_digits17`); zeros print as
``0``/``-0``, and any other value through ``%`` one at a time.  A float
column of whole numbers below 2^53 prints the same text as ``%d`` of its
int64 copy (:func:`whole`), which the CLI formats with its int columns.
"""

from __future__ import annotations

import numpy as np

#: The padding byte: 0xFF never occurs in UTF-8.
PAD = np.uint8(0xFF)
_U64 = np.uint64
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_D_MIN, _D_END = _U64(10 ** 16), _U64(10 ** 17)
_ZERO, _MINUS, _POINT = (np.uint8(ord(c)) for c in "0-.")
#: 1..17, the rank of each of the 17 digits, as a column.
_RANKS = np.arange(1, 18, dtype=np.int8)[:, None]
#: "false" and "true" by slot, the bool as the column.
_BOOL_SLOTS = np.frombuffer(b"ftarlusee\xff", np.uint8).reshape(5, 2)


def _split(v):
    """Veltkamp's split of doubles v into halves of at most 26 bits each,
    v = hi + lo exactly (by 2^27 + 1, for 53-bit significands)."""
    c = v * (2.0 ** 27 + 1)
    hi = c - (c - v)
    return hi, v - hi


#: 10^k, a double for k <= 22, and its halves, for every scale k = 16 - E an
#: estimate of E = floor(log10 |v|) can give.
_POW10F = 10.0 ** np.arange(23)
_POW10H, _POW10L = _split(_POW10F)


def _scaled(a, E):
    """(D, off): the round-half-even of a·10^k, k = 16 − E, and −1, 0 or 1 as
    floor(a·10^k) is below 10^16, in [10^16, 10^17) or above.

    Dekker's product (Numer. Math. 18, 1971) splits a and 10^k, a double
    for k ≤ 22, into 26-bit halves (:func:`_split`), so that
    a·10^k = p + err exactly, with p = fl(a·10^k) and err summed from
    products of halves, each exact.  In range p ≥ 10^16 > 2^53 is an
    integer, so floor(a·10^k) = p + ⌊err⌋, and err − ⌊err⌋ is the
    fraction that decides the rounding.  That fraction is exact: for
    a = m·2^e, m < 2^53, a·10^k is a multiple of 2^(e+k), and in range
    e + k ≥ −46, so it has at most 46 bits.  Out of range the bounds
    still compare right: p ≥ 2^53 is an integer, and below that
    p + ⌊err⌋ < 10^16 whatever the truncation of p.
    """
    k = 16 - E
    p = a * _POW10F.take(k)
    ah, al = _split(a)
    bh, bl = _POW10H.take(k), _POW10L.take(k)
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    low = np.floor(err)
    floor = p.astype(np.uint64)
    floor += low.astype(np.int64).view(np.uint64)  # wraps for ⌊err⌋ < 0
    err -= low
    up = (err > 0.5) | ((err == 0.5) & (floor & _U64(1)).astype(bool))
    off = (floor >= _D_END).astype(np.int8) - (floor < _D_MIN)
    floor += up
    return floor, off


def _digits17(a):
    """(D, X) with ``'%.17g' % a`` = the digits of D, 10^16 ≤ D < 10^17, at
    decimal exponent X, for float64 1e-4 ≤ a < 1e16.

    floor(log10 a) is only an estimate of the exponent E.  Every value is
    scaled once by 10^(16−E) (:func:`_scaled`); a value whose exact scaled
    value falls outside [10^16, 10^17) had E one off and is redone with E
    corrected.  The digits and their rounding come from an exact
    double-double product, never from a rounded one.  Rounding never
    carries D to 10^17 here: that needs a within 5·10^(E−17) below
    10^(E+1), and for every decade in range the largest double below
    10^(E+1) is further away, so X = E.
    """
    E = np.floor(np.log10(a)).astype(np.int64)
    D, off = _scaled(a, E)
    todo = np.flatnonzero(off)
    while todo.size:
        E[todo] += off[todo]
        D[todo], off[todo] = _scaled(a[todo], E[todo])
        todo = todo[off[todo] != 0]
    return D, E


def _select(mask, char, out=None):
    """``char`` where ``mask`` holds, :data:`PAD` elsewhere, as uint8.

    PAD − mask·(PAD − char) in place: several times faster than
    ``np.where`` with two scalars.
    """
    out = np.multiply(mask.view(np.uint8), PAD - char, out=out)
    return np.subtract(PAD, out, out=out)


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
    X = X.astype(np.int8)  # -4..15
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
    digits |= (_RANKS > ndigits).view(np.uint8) * PAD  # OR with 0xFF gives PAD
    point = np.where(kept > X + 1, X, np.int8(-1))  # the digit the point follows

    low = int(X.min(initial=0))
    high = int(point.max(initial=-1))
    first = max(low, 0)
    points = max(high + 1 - first, 0)
    lead = 1 - low if low < 0 else 0  # "0." then -X - 1 zeros
    cells = np.empty((1 + lead + 17 + points, x.size), np.uint8)
    _select(x.view(np.int64) < 0, _MINUS, cells[0])
    if lead:
        _select(X < 0, _ZERO, cells[1])
        _select(X < 0, _POINT, cells[2])
        for k in range(1, -low):
            _select(X < -k, _ZERO, cells[2 + k])
    at = 1 + lead
    cells[at:at + first] = digits[:first]
    at += first
    for j in range(first, first + points):
        cells[at] = digits[j]
        _select(point == j, _POINT, cells[at + 1])
        at += 2
    cells[at:] = digits[first + points:]

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
    top = q.max(initial=0)
    width = int(np.searchsorted(_POW10, top, side="right")) or 1
    if top >> _U64(32) == 0:
        q = q.astype(np.uint32)  # divides about 3x faster than uint64
    ten = q.dtype.type(10)
    cells = np.empty((1 + width, q.size), np.uint8)
    _select(np.concatenate(negs), _MINUS, cells[0])
    for r in range(width):
        q10 = q // ten
        row = cells[width - r]
        np.add(q - q10 * ten, _ZERO, out=row, casting="unsafe")
        if r:  # a leading zero is padding
            row |= (q == 0).view(np.uint8) * PAD
        q = q10
    return cells


def whole(col):
    """The int64 copy of a float column whose every value v is an integer
    with |v| < 2^53 and not -0.0, or None.

    Such a v is exact as an int64 and has at most 16 digits, so
    ``'%.17g' % v == '%d' % int(v)``: the copy prints through
    :func:`int_text` with the same text.
    """
    x = np.asarray(col, dtype=np.float64)
    if not (np.abs(x) < 2.0 ** 53).all():  # also NaN and ±inf
        return None
    i = x.astype(np.int64)
    # Bit for bit, so a fraction and -0.0 (which converts to 0) both fail.
    return i if np.array_equal(i.astype(np.float64).view(np.int64), x.view(np.int64)) else None


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

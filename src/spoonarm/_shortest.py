"""repr's text for whole blocks of float64 cells, as CSV rows.

repr writes the shortest decimal that reads back as the same double and,
of those, the one closest to it. Ryu (U. Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) finds those digits with 64x128-bit products and a
digit-removal loop, and both run here on numpy uint64 arrays. Everything
that depends on a double's biased exponent E comes from tables of 2,048
entries, built with Python ints on the first call, not at import.

Cells that Ryu may send down its trailing-zero path (0.5, 2.0, every
magnitude from 2**49 to 2**131), zeros, subnormals, infinities and NaNs
take repr itself, once per distinct bit pattern; every other cell takes
the array path. A cell whose bits equal those of the cell above it takes
that cell's text, so a run of equal cells is formatted once. Each run's
text, a fixed 25 bytes, is gathered from its digits through a table of
layouts into one (runs, 25) array, by one take per _CHUNK_RUNS runs, so
that the byte index, 200 bytes a run, stays bounded; repr's text is
written over a run's first 24 bytes, and each cell then copies its
run's row, in row order.
numpy 1.24's value-based casting turns uint64 mixed with int64 into
float64, so every operand of the uint64 arithmetic is uint64.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32, _32, _52, _63 = _U(0xFFFFFFFF), _U(32), _U(52), _U(63)
_ALL = (1 << 64) - 1
_BITS = 125                 # Ryu's multiplier precision, in bits

# A run's text is gathered from its 32 source bytes: 20 digits of the
# decimal significand, 4 of the decimal exponent, then _CONST.
_CONST = b"0.e-+,\0\0"
_ZERO, _POINT, _E, _MINUS, _PLUS, _COMMA, _NUL = range(24, 31)
_WIDTH = 25                 # the longest text, 24 bytes, then a comma
# text forms: positional (digits 1-17, decimal point at -3..16), then
# exponential (digits, exponent sign, three exponent digits)
_EXPONENTIAL = 17 * 20
_DECPTS = 700               # decimal points -330..369 in the form table
_CHUNK_RUNS = 2048          # runs whose text one take gathers

_tables = None


def _exponent_tables():
    """Per biased exponent E: Ryu's multiplier mul as four 32-bit limbs;
    its shift s, the product's bits from 2**s up being kept; the decimal
    exponent of the product's integer part; a mask whose bits are all
    clear in 4*mantissa where Ryu may take its trailing-zero path (always
    for E = 0, 2047 and where Ryu tests divisibility by 5**q); and at
    2E + d - 1, floor(d * mul / 2**s) for d = 1, 2, as high and low words."""
    shift, e10, mask = [1] * 2048, [0] * 2048, [0] * 2048
    mul, step = bytearray(16 * 2048), bytearray(32 * 2048)  # little-endian
    for E in range(1, 2047):
        e2 = E - 1077       # binary exponent of 4*mantissa
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)
            p = 5 ** q
            k = p.bit_length() - 1 + _BITS
            m, j, e10[E] = (1 << k) // p + 1, q - e2 + k, q
            mask[E] = 0 if q <= 21 else _ALL
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)
            p = 5 ** (-e2 - q)
            k = p.bit_length() - _BITS
            m, j, e10[E] = (p >> k if k >= 0 else p << -k), q - k, q + e2
            mask[E] = 0 if q <= 1 else (1 << q) - 1 if q < 63 else _ALL
        shift[E] = j - 64
        mul[16 * E:16 * E + 16] = m.to_bytes(16, "little")
        step[32 * E:32 * E + 32] = b"".join(
            (d * m >> j - 64).to_bytes(16, "little") for d in (1, 2))
    step = np.frombuffer(step, dtype="<u8").reshape(-1, 2).T
    return (np.frombuffer(mul, dtype="<u4").reshape(-1, 4).T.astype(_U),
            np.array(shift, dtype=_U), np.array(e10, dtype=np.intp),
            np.array(mask, dtype=_U), step[1].astype(_U), step[0].astype(_U))


def _form_table():
    """The text form of each digit count 0..17 (0 for cells that take
    repr) and decimal point, the decimal exponent of the first digit plus
    one, at nd * _DECPTS + decpt + 330."""
    nd = np.arange(18)[:, None]
    decpt = np.arange(-330, _DECPTS - 330)
    exp10 = decpt - 1
    return np.where((decpt > -4) & (decpt <= 16), (nd - 1) * 20 + decpt + 3,
                    _EXPONENTIAL + (nd - 1) * 4 + 2 * (exp10 < 0)
                    + (abs(exp10) >= 100)).clip(0).ravel()


def _layout_table():
    """The source byte of each output byte, for every form and sign: the
    text padded with NUL to 24 bytes, then a comma."""
    table = np.full((_EXPONENTIAL + 17 * 4, 2, _WIDTH), _NUL, dtype=np.intp)
    table[..., -1] = _COMMA

    def put(form, body):
        for neg in (0, 1):
            row = [_MINUS] * neg + body
            table[form, neg, :len(row)] = row

    for nd in range(1, 18):
        digits = list(range(20 - nd, 20))
        for decpt in range(-3, 17):
            if decpt <= 0:
                body = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
            elif decpt < nd:
                body = digits[:decpt] + [_POINT] + digits[decpt:]
            else:
                body = digits + [_ZERO] * (decpt - nd) + [_POINT, _ZERO]
            put((nd - 1) * 20 + decpt + 3, body)
        mantissa = digits[:1] + ([_POINT] + digits[1:]) * (nd > 1)
        for negative in (0, 1):
            for three in (0, 1):
                put(_EXPONENTIAL + (nd - 1) * 4 + 2 * negative + three,
                    mantissa + [_E, (_PLUS, _MINUS)[negative]]
                    + list(range(22 - three, 24)))
    return table.reshape(-1, _WIDTH)


def _build_tables():
    global _tables
    if _tables is None:
        # 4-digit chunks as 32-bit words, then the two words of _CONST
        chunks = np.arange(10000, dtype=np.uint16)[:, None] \
            // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + 48
        words = np.concatenate([chunks.astype(np.uint8).view(np.uint32)
                                .ravel(), np.frombuffer(_CONST, np.uint32)])
        _tables = (*_exponent_tables(), words,
                   np.array([10 ** i for i in range(20)], dtype=_U),
                   _form_table(), _layout_table())
    return _tables


def _product(m, E, limbs, shift):
    """floor(m * mul / 2**s) as high and low 64-bit words, for m < 2**55
    and exponents E, with Ryu's multiplier mul < 2**125 as 32-bit limbs
    and its shift 0 < s < 64 looked up per E."""
    m0, m1 = m & _M32, m >> _32
    b = limbs[0].take(E)
    t = m0 * b
    parts = [t & _M32]                  # 32-bit columns of the product
    c = t >> _32                        # carried into the next column
    for limb in limbs[1:]:
        t = m1 * b
        b = limb.take(E)
        c += t & _M32
        up = t >> _32
        t = m0 * b
        c += t & _M32
        up += t >> _32
        parts.append(c & _M32)
        c >>= _32
        c += up
    t = m1 * b
    del m0, m1, b, up
    c += t & _M32
    c += (t >> _32) << _32              # bits 128 and up
    parts[1] <<= _32
    parts[3] <<= _32
    bottom, low = parts[0] | parts[1], parts[2] | parts[3]
    del parts, t
    s = shift.take(E)
    left = _U(64) - s
    c <<= left
    c |= low >> s
    low <<= left
    bottom >>= s
    low |= bottom
    return c, low


def _decimal(bits):
    """Ryu's shortest decimal of each float64 bit pattern, as digits and
    the power of ten of the last digit, and the indices of the cells that
    take repr instead."""
    (limbs, shift, e10, mask, step_hi, step_lo, _,
     powers) = _build_tables()[:8]
    E = ((bits >> _52) & _U(0x7FF)).astype(np.intp)
    fraction = bits & _U((1 << 52) - 1)
    narrow = (fraction == _U(0)) & (E > 1)      # a narrower lower margin
    mv = (fraction | _U(1 << 52)) << _U(2)
    del fraction
    unsure = (mv & mask[E]) == _U(0)
    vr, low = _product(mv, E, limbs, shift)
    del mv
    # With B_d = floor(d * mul / 2**s), vp is the high word of A + B_2,
    # plus 0 or 1, and vm that of A - B_d, less 0 or 1, where A is the
    # product's (vr, low) and d = 1 or 2 is Ryu's lower margin. Both are
    # exact unless the low word of the sum is all ones or zero.
    index = 2 * E
    index -= narrow
    index += 1
    b_low = step_lo[index]
    vm = vr - step_hi[index] - (low < b_low)
    unsure |= low == b_low
    index = 2 * E + 1
    b_low = step_lo[index]
    b_low += low
    vp = vr + step_hi[index] + (b_low < low)
    unsure |= b_low == _U(_ALL)
    del index, b_low, low, narrow

    # remove the most digits k for which vp // 10**k > vm // 10**k; as
    # that holds for every smaller k too, the steps 16, 8, 4, 2, 1 find k
    k = np.zeros(len(bits), dtype=np.intp)
    p, m = vp, vm
    for size in (16, 8, 4, 2, 1):
        divisor = _U(10 ** size)
        p_cut, m_cut = p // divisor, m // divisor
        cut = p_cut > m_cut
        if cut.any():
            p, m = np.where(cut, p_cut, p), np.where(cut, m_cut, m)
            k += cut * size
    # round up where the removed digits are at least half of 10**k, or
    # where r is vm, which lies outside the interval
    scale = powers[k]
    r = vr // scale
    vr -= r * scale
    vr += vr
    r += (r == m) | (vr >= scale)
    k += e10[E]
    return r, k, np.flatnonzero(unsure)


def _gather(source, form, layout):
    """Each run's text, an (n, _WIDTH) array of bytes: run i's bytes of
    `source` from offset 32 i, as its form's row of `layout` lists them.
    The byte index is 200 bytes a run, so it is built for _CHUNK_RUNS
    runs at a time, never for the whole block."""
    text = np.empty((len(form), _WIDTH), dtype=np.uint8)
    for start in range(0, len(form), _CHUNK_RUNS):
        index = layout.take(form[start:start + _CHUNK_RUNS], axis=0)
        index += 32 * np.arange(start, start + len(index))[:, None]
        source.take(index, out=text[start:start + len(index)])
    return text


def csv_rows(block) -> bytes:
    """The rows of a 2-D float64 array as CSV text: each cell is its
    float's repr, cells end in ',' and rows in a newline.

    A cell whose bits equal those of the cell above it takes that cell's
    text, so each run of equal cells in a column is formatted once. The
    decimal significand is split into 4-digit chunks, each looked up as
    four bytes of text; each run's bytes are then gathered by _gather,
    _WIDTH bytes ending in a comma, each cell copies its run's bytes in
    row order, and the NUL padding is removed at once."""
    words, powers, forms, layout = _build_tables()[6:]
    table = np.ascontiguousarray(block, dtype=float).view(_U)
    rows, cols = table.shape
    # a run starts where the bits differ from the cell above, so -0.0
    # after 0.0 and NaNs of other payloads start runs of their own
    first = np.ones((rows, cols), dtype=bool)
    first[1:] = table[1:] != table[:-1]
    first = first.T.ravel()
    bits = table.T.ravel()[first]
    owner = (first.cumsum() - 1).reshape(cols, rows).T.ravel()
    n = bits.size
    digits, exp10, rest = _decimal(bits)
    nd = np.searchsorted(powers[:18], digits, side="right")
    decpt = exp10 + nd
    form = forms[nd * _DECPTS + decpt + 330] * 2
    form += (bits >> _63).astype(np.intp)
    source = np.empty((n, 8), dtype=np.uint32)  # 4-byte words of text
    source.view(np.uint64)[:, 3] = words[10000:].view(np.uint64)[0]
    source[:, 5] = words.take(np.abs(decpt - 1))
    del exp10, nd, decpt
    # a scalar // and a multiply-subtract, not np.divmod: numpy divides
    # by a scalar with a precomputed multiplier, np.divmod with the
    # hardware divide, several times slower
    for column in range(4, 0, -1):
        high = digits // _U(10000)
        digits -= high * _U(10000)
        source[:, column] = words.take(digits)
        digits = high
    source[:, 0] = words.take(digits)
    del digits, high

    text = _gather(source.view(np.uint8).ravel(), form, layout)
    del source, form
    if rest.size:       # repr's text over the 24 bytes before the comma
        values, inverse = np.unique(bits[rest], return_inverse=True)
        texts = [repr(v).encode() for v in values.view(float).tolist()]
        text[rest, :24] = np.array(texts, dtype="S24").view(
            np.uint8).reshape(-1, 24)[inverse]
    # each cell's bytes in row order, a row's last cell ending in a
    # newline; bytes.translate strips the NUL padding faster than a
    # boolean compress of the array
    cells = text.take(owner, axis=0).reshape(rows, cols, _WIDTH)
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")

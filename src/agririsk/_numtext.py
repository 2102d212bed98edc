"""The text of whole float64 arrays, byte for byte as CPython writes repr(x) and '%.6f' % x.

repr(x) is the shortest decimal that reads back as x, the nearest to x of
those, with ties to an even last digit (sys.float_repr_style "short").
repr_fields finds those digits by Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020) on integer limbs held in uint64 arrays: one
128 x 64-bit product per value, and the rounding interval's two ends from
it by exact shifted adds. '%.6f' % x is x correctly rounded to six
decimals, ties to even; fixed6_fields rounds the exact product x * 1e6,
kept as two doubles by Dekker's method, for |x| < 2**33, and asks Python
for the rare larger value. A non-finite value raises ModelError.

Each kernel returns a value's text as w uint64 words of ASCII, little
endian, in a (w, size) array, with NUL bytes wherever the text has no
character. table, the one writer of the report files' rows, lays such
words out beside literal text and drops the NULs, so no Python object is
made per number; it alone knows the chunk size and the words' layout.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

from .errors import ModelError

CHUNK_VALUES = 1 << 12  # numbers of one dtype table formats per call: it bounds their scratch memory

_U = np.uint64
_LE = np.dtype("<u8")  # how a word's bytes lie in text: byte i is bits 8i..8i+7, whatever the machine's order
_M32 = _U(0xFFFFFFFF)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of doubles' scaled digits, v ~ s * 10**k
_P10 = 10 ** np.arange(18, dtype=_U)
_ZEROS = int.from_bytes(b"0" * 8, "little")  # eight ASCII '0' digits in one word
_FIXED6_LIMIT = 2.0**33  # below it x * 1e6 < 2**53, so rounding its high part lands on an exact integer
_POINTS = range(-4, 18)  # a repr's decimal point position, 0.d1d2... 10**point, clipped: outside -3..16 is e-notation
_EXPONENTS = range(-400, 400)  # e-notation exponents, with room on both sides


def _words(texts: list[str] | list[bytes]) -> np.ndarray:
    """(w, len(texts)) words of the ASCII str or bytes texts, NUL-padded; w holds each up to its last byte not NUL."""
    packed = np.array(texts, "S")
    width = -(-packed.itemsize // 8)
    return np.ascontiguousarray(packed.astype(f"S{8 * width}")).view(_LE).reshape(len(texts), width).T


class _Tables(NamedTuple):
    """The kernels' lookup tables.

    g holds Schubfach's g(k) = floor(10**-k / 2**r) + 1 in [2**125, 2**126),
    a column per k = -324..292: four 32-bit limbs, low first, then the same
    as two 64-bit limbs.
    """

    g: np.ndarray
    four: np.ndarray  # the 4 ASCII digits of 0..9999, as the low 4 bytes of a word
    layout: np.ndarray  # per (point, significant digits) case of a repr, the words that lay out its text (_laid_out)
    exponent: np.ndarray  # e-notation suffixes, e-400..e+399
    unpad: np.ndarray  # per z, the mask that clears bytes 1..z of a sign byte and 16 digits: an integer's leading 0s


@cache
def _tables() -> _Tables:
    """The lookup tables, built on first use rather than at import."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (125 + p.bit_length())) // p + 1)
    g = np.array([[v >> (32 * i) & 0xFFFFFFFF for v in g] for i in range(4)]
                 + [[v & (2**64 - 1) for v in g], [v >> 64 for v in g]], _U)
    n = np.arange(10_000, dtype=_U)
    four = sum((_U(48) + n // _U(10 ** (3 - i)) % _U(10)) << _U(8 * i) for i in range(4))
    # a body is the digits moved up `shift` bytes past its sign byte, '0's put in below them, a '.'
    # put in at byte `dot` with what is above it moved up one, and every byte from `end` on cleared
    layout = []
    for point in _POINTS:
        for n in range(18):  # significant digits; 0 is never used
            if -3 <= point <= 0:  # 0.000ddd
                shift, dot, end = 2 - point, 2, n + 3 - point
            elif 0 < point <= 16:  # ddd.ddd, or ddd00.0
                shift, dot, end = 1, point + 1, max(n, point + 1) + 2
            else:  # d.ddde+XX, or de+XX
                shift, dot, end = 1, 2, n + 2 if n > 1 else 2
            words = (bytes([8 * shift]), b"\0" + b"0" * (shift - 1), b"\xff" * dot, b"\0" * dot + b".", b"\xff" * end)
            layout.append(b"".join(w.ljust(size, b"\0") for w, size in zip(words, (8, 8, 24, 24, 24))))
    layout = _words(layout)
    exponent = _words([b"e%+03d" % e for e in _EXPONENTS])[0]
    unpad = _words([b"\xff" + b"\0" * z + b"\xff" * (23 - z) for z in range(16)])
    for lookup in (g, four, layout, exponent, unpad):
        lookup.setflags(write=False)
    return _Tables(g, four, layout, exponent, unpad)


def _round_to_odd(mid: np.ndarray, high: np.ndarray) -> np.ndarray:
    """floor(p / 2**127) of p = high 2**128 + mid 2**64 + low, its last bit set where p's bits 64..126 are not all 0.

    The bits below 64 hold only g's excess over 10**-k 2**-r times a factor
    below 2**59, so they are left out, as Schubfach's rop leaves them out.
    """
    return ((high << _U(1)) | (mid >> _U(63)) | ((mid << _U(1)) != 0)).astype(np.int64)


def _product(g: np.ndarray, cp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 64-bit limbs (low, mid, high) of g cp, for g as four 32-bit limbs and cp < 2**59.

    Eight 32 x 32-bit products summed in 32-bit columns: cp's high half is
    below 2**27, so its products are below 2**59 and are added whole.
    """
    m = g * (cp & _M32)
    m_hi = g * (cp >> _U(32))
    col1 = (m[0] >> _U(32)) + (m[1] & _M32) + m_hi[0]
    col2 = (col1 >> _U(32)) + (m[1] >> _U(32)) + (m[2] & _M32) + m_hi[1]
    col3 = (col2 >> _U(32)) + (m[2] >> _U(32)) + (m[3] & _M32) + m_hi[2]
    high = (col3 >> _U(32)) + (m[3] >> _U(32)) + m_hi[3]
    return (m[0] & _M32) | (col1 << _U(32)), (col2 & _M32) | (col3 << _U(32)), high


def _shifted(g: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 64-bit limbs of g << shift, for g as two 64-bit limbs and shift in 1..5."""
    back = _U(64) - shift
    return g[0] << shift, (g[1] << shift) | (g[0] >> back), g[1] >> back


def _ends(g: np.ndarray, h: np.ndarray, irregular: np.ndarray, p: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The rounding interval's ends p + (g << (h + 1)) and p - (g << (h + 1 - irregular)), each rounded to odd.

    p is (low, mid, high) and g two 64-bit limbs; the sum and difference are exact, carries and borrows included.
    """
    low, mid, high = p
    d0, d1, d2 = _shifted(g, h + _U(1))
    carry = low + d0 < low
    r1 = mid + d1
    carry_up = r1 < mid
    r1 += carry
    carry_up |= r1 < carry
    right = _round_to_odd(r1, high + d2 + carry_up)
    d0, d1, d2 = _shifted(g, h + _U(1) - irregular)
    borrow = low < d0
    l1 = mid - d1
    borrow_up = (mid < d1) | (l1 < borrow)
    l1 -= borrow
    return right, _round_to_odd(l1, high - d2 - borrow_up)


def _decoded(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each positive double v = c 2**q's c, Schubfach's k and h, and whether its lower neighbour is nearer."""
    bq = (bits >> _U(52)).astype(np.int64)
    t = bits & _U((1 << 52) - 1)
    q = np.maximum(bq, 1) - 1075
    # a power of two above the least normal has its nearer neighbour below: its lower end is a quarter step away
    irregular = (t == 0) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2**q)), or of 3/4 2**q
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)  # q + floor(-k log2 10) + 2, in 1..4
    return t | (bq > 0) * _U(1 << 52), k, h, irregular


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f < 10**17 and k, both int64, with f 10**k the decimal repr writes for each positive finite double's bits.

    Schubfach's computation, on uint64 arrays, of the shortest decimals in
    each value's rounding interval and the nearest of them. Its one special
    case is left out: a subnormal c below 3 is not scaled by 10, since
    Java's rule of two digits at least is not Python's.
    """
    c, k, h, irregular = _decoded(bits)
    g = _tables().g.take(k - _K_MIN, axis=1)
    p = _product(g[:4], c << (h + _U(2)))  # g (4 c << h) ~ 4 v 10**-k 2**127
    vb = _round_to_odd(p[1], p[2])
    vbr, vbl = _ends(g[4:], h, irregular, p)
    out = (c & _U(1)).astype(np.int64)  # an odd c does not own its interval's ends
    s = vb >> 2
    s4 = vb & -4
    sp4 = s // 10 * 40  # one digit fewer: 4 times the multiples of 10 at or below s, and above it
    vbl += out
    upin = vbl <= sp4
    wpin = sp4 + 40 + out <= vbr
    uin = vbl <= s4
    win = s4 + 4 + out <= vbr
    low2 = vb & 3  # 4 (v 10**-k - s): the nearer of s and s + 1, ties to even
    nearer_s = uin & (~win | (low2 < 2) | ((low2 == 2) & (s & 1 == 0)))
    return np.where(upin != wpin, (sp4 >> 2) + 10 * wpin, s + ~nearer_s), k


def _ascii16(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of n < 10**16's two 8-digit halves, as (4 digits above, 4 below) words, each (2, size)."""
    halves = np.empty((2, n.size), _U)
    halves[0] = n // _U(10**8)
    halves[1] = n - halves[0] * _U(10**8)
    up = halves // _U(10_000)
    four = _tables().four
    return four.take(up), four.take(halves - up * _U(10_000))


def _signed16(n: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """(3, size) words: a '-' byte or NUL, then the 16 digits of n < 10**16."""
    up, down = _ascii16(n)
    w = np.empty((3, n.size), _U)
    w[0] = negative * _U(ord("-")) | (up[0] << _U(8)) | (down[0] << _U(40))
    w[1] = (down[0] >> _U(24)) | (up[1] << _U(8)) | (down[1] << _U(40))
    w[2] = down[1] >> _U(24)
    return w


def _unpadded(w: np.ndarray, digits: np.ndarray, width: int) -> np.ndarray:
    """w with the leading zeros of integer parts of the given digit counts, width digits wide, made NUL."""
    w &= _tables().unpad.take(width - digits.clip(1), axis=1)
    return w


def _fallback(w: np.ndarray, where: np.ndarray, texts: list[str]) -> np.ndarray:
    """w with the columns where is set replaced by texts, widened to hold them."""
    wide = _words(texts)
    w = np.concatenate((w, np.zeros((max(0, len(wide) - len(w)), w.shape[1]), _U)))
    w[:, where] = 0
    w[: len(wide), where] = wide
    return w


def repr_fields(x: np.ndarray) -> np.ndarray:
    """(w, *x.shape) uint64: [:, i] holds repr(x[i]) as ASCII words, NUL bytes where it has no character.

    A float array's entries are float.__repr__, an integer array's int.__repr__; an integer of 10**16 or
    more in magnitude, which no report file holds, raises IndexError.
    """
    return _fields(np.asarray(x), _repr_words)


def fixed6_fields(x: np.ndarray) -> np.ndarray:
    """(w, *x.shape) uint64: [:, i] holds '%.6f' % x[i] as ASCII words, NUL bytes where it has no character."""
    return _fields(np.asarray(x, dtype=np.float64), _fixed6_words)


def _fields(x: np.ndarray, words) -> np.ndarray:
    """words(x.ravel()), a float array's values checked finite first, as (w, *x.shape)."""
    flat = x.ravel()
    if flat.dtype.kind == "f" and not np.isfinite(flat).all():
        raise ModelError(f"cannot write a number that is not finite: {float(flat[~np.isfinite(flat)][0])!r}")
    w = words(flat)
    return w.reshape(len(w), *x.shape)


def _repr_words(x: np.ndarray) -> np.ndarray:
    """repr_fields' words for a flat array: an integer's digits, a float's shortest digits as repr lays them out."""
    if x.dtype.kind in "iu":
        u = np.abs(x).astype(_U)
        return _unpadded(_signed16(u, x < 0), np.searchsorted(_P10, u, side="right"), 16)
    x = x.astype(np.float64, copy=False)
    w, n, point = _digits(x.view(_U) & _U((1 << 63) - 1))
    body = _laid_out(w, n, point)
    body[0] |= np.signbit(x) * _U(ord("-"))
    sci = (point < -3) | (point > 16)
    if not sci.any():
        return body
    exponent = _tables().exponent.take(np.clip(point - 1, _EXPONENTS[0], _EXPONENTS[-1]) - _EXPONENTS[0]) * sci
    return np.concatenate((body, exponent[None]))


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each nonnegative double, from its bits: words, significant digits, point.

    The words, (3, size), hold its shortest digits and then '0's, 17 in all,
    digit j in byte j; the decimal point's place is as in 0.d1d2... 10**point.
    """
    zero = bits == 0
    f, point = _shortest(bits | zero * np.float64(1.0).view(_U))  # 0 takes 1.0's digits, then its 1 is made 0
    f = f.astype(_U)
    length = np.searchsorted(_P10, f, side="right")
    point += length  # f 10**k = 0.f1f2... 10**(k + length)
    f = f * _P10.take(17 - length)
    top = f // _U(10**16)
    w = _signed16(f - top * _U(10**16), False)
    w[0] |= top + _U(48) - zero
    # the significant digits: one past the last nonzero digit, whose byte the top bit of w - '0's sits in
    z = (w - np.array([[_ZEROS], [_ZEROS], [48]], _U)).astype(np.float64).view(np.int64)
    last = ((z >> 52) - 1023) >> 3  # -128 where no digit is nonzero
    return w, np.maximum(np.maximum(last[0], last[1] + 8), np.maximum(last[2] + 16, 0)) + 1, point


def _laid_out(w: np.ndarray, n: np.ndarray, point: np.ndarray) -> np.ndarray:
    """repr's text but for its sign and exponent: the digit words w moved up past a sign byte, with the point put in."""
    shift, zeros, first_dot, dot, first_end = np.split(
        _tables().layout.take((np.clip(point, _POINTS[0], _POINTS[-1]) - _POINTS[0]) * 18 + n, axis=1), [1, 2, 5, 8])
    above = w << shift
    above[1:] |= w[:-1] >> (_U(64) - shift)
    above[0] |= zeros[0]
    below = above & first_dot
    above ^= below
    body = above << _U(8)
    body[1:] |= above[:-1] >> _U(56)
    body |= below
    body |= dot
    body &= first_end
    return body


def _fixed6_words(x: np.ndarray) -> np.ndarray:
    """fixed6_fields' words for a flat float64 array."""
    a = np.abs(x)
    big = a >= _FIXED6_LIMIT
    a[big] = 0.0
    hi = a * 1e6
    split = a * 134_217_729.0  # 2**27 + 1: a's high 26 bits ah, and al = a - ah, exactly
    ah = split - (split - a)
    lo = (ah * 1e6 - hi) + (a - ah) * 1e6  # a * 1e6 = hi + lo exactly: 1e6 has 14 significant bits
    n = np.rint(hi)  # ties to even: right unless lo breaks the tie
    r = hi - n
    n += ((r == 0.5) & (lo > 0)).astype(float) - ((r == -0.5) & (lo < 0))
    # above 2**52 hi is whole and lo may sit half way: ties to even
    n += ((r == 0) & (np.abs(lo) == 0.5) & (n % 2 == 1)) * np.sign(lo)
    n = n.astype(_U)
    w = _signed16(n, np.signbit(x))  # 10 digits before the point, 6 after: the point goes in at byte 11
    w[2] = (w[2] << _U(8)) | (w[1] >> _U(56))
    w[1] = (w[1] & _U(0xFFFFFF)) | _U(ord(".") << 24) | ((w[1] >> _U(24)) << _U(32))
    w = _unpadded(w, np.searchsorted(_P10, n // _U(10**6), side="right"), 10)
    return _fallback(w, big, ["%.6f" % v for v in x[big].tolist()]) if big.any() else w


def _joined(parts: list, n: int, end: bytes) -> bytes:
    """The bytes of n rows, each its parts and then end, side by side, with every NUL byte dropped."""
    parts = [p if isinstance(p, np.ndarray) else p.encode("ascii") for p in parts] + [end]
    widths = [len(p) * 8 if isinstance(p, np.ndarray) else len(p) for p in parts]
    m = np.empty((n, sum(widths)), np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        if isinstance(part, np.ndarray):
            m[:, at : at + width].view(_LE)[:] = part.T
        else:
            m[:, at : at + width] = np.frombuffer(part, np.uint8)
        at += width
    return m[m != 0].tobytes()


def table(parts: list, n: int, kernel=repr_fields) -> list[str]:
    """The text of n rows, each its parts side by side, as the texts of its chunks of rows, to be joined.

    A part is an ASCII str, the same on every row; an iterable of n strs,
    one per row, of any characters; or an array of n numbers, written by
    kernel with one call per dtype per chunk. Each chunk holds at most
    CHUNK_VALUES numbers of one dtype, and takes that many rows of each
    iterable.
    """
    parts = [p if isinstance(p, (str, np.ndarray)) else iter(p) for p in parts]
    columns: dict[np.dtype, list[int]] = {}
    for i, part in enumerate(parts):
        if isinstance(part, np.ndarray):
            columns.setdefault(part.dtype, []).append(i)
    step = CHUNK_VALUES // max([1, *map(len, columns.values())])
    # the per-row strs, kept out of the byte layout, cut the row into runs of literals and numbers
    cuts = [i for i, part in enumerate(parts) if not isinstance(part, (str, np.ndarray))]
    # a run's rows are laid out each ending in a control character that no literal holds, then split apart
    end = min(set(map(chr, range(1, 32))).difference(*(part for part in parts if isinstance(part, str))))
    chunks = []
    for start in range(0, n, step):
        m = min(step, n - start)
        laid = list(parts)
        for same in columns.values():
            words = kernel(np.vstack([parts[i][start : start + m] for i in same]))
            for j, i in enumerate(same):
                laid[i] = words[:, j]
        if not cuts:
            chunks.append(_joined(laid, m, b"").decode("ascii"))
            continue
        pieces = []
        for before, cut in zip([-1] + cuts, cuts + [len(parts)]):
            run = laid[before + 1 : cut]
            if any(isinstance(part, np.ndarray) for part in run):
                pieces.append(_joined(run, m, end.encode()).decode("ascii").split(end)[:-1])
            elif run:
                pieces.append(repeat("".join(run), m))
            if cut < len(parts):
                pieces.append(islice(parts[cut], m))
        chunks.append("".join(chain.from_iterable(zip(*pieces))))
    return chunks

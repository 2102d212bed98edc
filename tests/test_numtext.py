"""The array float text of agririsk._numtext against Python's own repr and '%.6f', byte for byte."""

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from agririsk import _numtext
from agririsk.errors import ModelError

FINITE_MAX = np.finfo(np.float64).max


def texts(x, kernel=_numtext.repr_fields) -> list[str]:
    """Each value's text as kernel writes it, one a line, by the report files' writer."""
    x = np.asarray(x)
    return "".join(_numtext.table([x, "\n"], x.size, kernel)).split("\n")[:-1]


def assert_repr(x: np.ndarray) -> None:
    x = np.asarray(x, np.float64)
    want = [repr(v) for v in x.tolist()]
    got = texts(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:10]


def assert_fixed6(x: np.ndarray) -> None:
    x = np.asarray(x, np.float64)
    want = ["%.6f" % v for v in x.tolist()]
    got = texts(x, _numtext.fixed6_fields)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:10]


def with_neighbours(x) -> np.ndarray:
    x = np.asarray(x, np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf, dropped below
        both = np.concatenate((x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)))
    both = both[np.isfinite(both)]
    return np.concatenate((both, -both))


def random_doubles(seed: int, n: int, top_exponent: int = 2046) -> np.ndarray:
    """n random finite doubles: random sign and significand bits, biased exponent uniform in 0..top_exponent."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    return (bits | rng.integers(0, top_exponent + 1, n).astype(np.uint64) << np.uint64(52)).view(np.float64)


def test_python_writes_the_shortest_repr():
    # the kernels reproduce repr's "short" style; the legacy style wrote 17 significant digits
    assert sys.float_repr_style == "short"


class TestRepr:
    def test_random_bit_patterns(self):
        assert_repr(random_doubles(1, 200_000))

    def test_powers_of_two_and_ten_with_both_neighbours(self):
        powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
        assert_repr(with_neighbours(powers))

    def test_first_subnormals_and_the_largest_float(self):
        first = np.arange(1, 5000, dtype=np.uint64).view(np.float64)
        assert_repr(with_neighbours(np.concatenate((first, [np.finfo(np.float64).tiny, FINITE_MAX]))))

    def test_integers_around_2_to_the_53(self):
        assert_repr(with_neighbours(np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.float64)))

    def test_layout_edges_and_signed_zeros(self):
        # 1e-4 is the last 0.000ddd and 1e-5 the first e-notation below, 1e16 the first e-notation above
        edges = [1e-4, 1e-5, 1e-3, 0.1, 1.0, 1e15, 1e16, 1e17, 1e100, 1e-100, 123.0, 0.5, 1.5]
        assert_repr(np.concatenate((with_neighbours(edges), [0.0, -0.0])))
        assert texts(np.array([1e16, 1e-5, 1e-4, -0.0, 0.0])) == [
            "1e+16", "1e-05", "0.0001", "-0.0", "0.0"]

    def test_halfway_between_two_shortest(self):
        # v = 2**50 + 1/4 lies halfway between ...24.2 and ...24.3: the even last digit
        assert_repr(2.0**50 + np.arange(1, 1000) / 4)

    def test_values_in_every_shape(self):
        x = random_doubles(2, 6000).reshape(2, 3000)
        words = _numtext.repr_fields(x)
        assert words.shape[1:] == x.shape
        assert np.array_equal(words[:, 1], _numtext.repr_fields(x[1]))
        assert texts(x[1]) == [repr(v) for v in x[1].tolist()]

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_small_arrays(self, n):
        assert_repr(random_doubles(n, n + 10)[:n])
        assert_fixed6(random_doubles(n, n + 10, top_exponent=1023 + 40)[:n])

    def test_integer_arrays_are_written_as_int_repr(self):
        # grid indexes and whole money below 2**53: every int64 below 10**16 in magnitude
        ints = np.concatenate((np.arange(-300, 300), [0, 9, 10, 99, 10**15, 2**53, 10**16 - 1, -(10**16 - 1)]))
        assert texts(ints) == [repr(v) for v in ints.tolist()]

    @pytest.mark.parametrize("big", [10**16, -(10**16), 2**62, -(2**63)])
    def test_integers_past_sixteen_digits_raise(self, big):
        # nothing is written wrong silently: the digit table has no entry past 16 digits
        with pytest.raises(IndexError):
            _numtext.repr_fields(np.array([3, big]))


class TestFixed6:
    def test_random_bit_patterns(self):
        # below 2**34, where the kernel's own rounding writes the digits, and anywhere, past it
        assert_fixed6(random_doubles(3, 200_000, top_exponent=1023 + 33))
        assert_fixed6(random_doubles(5, 2_000))

    def test_log_uniform_spread_of_signs_and_sizes(self):
        rng = np.random.default_rng(4)
        assert_fixed6(np.exp(rng.uniform(-25.0, 25.0, 200_000)) * rng.choice([-1.0, 1.0], 200_000))

    def test_ties_at_k_over_128(self):
        # k/128 has 7 decimals, so its 7th is a tie between two 6-decimal neighbours: the even one
        k = np.arange(-2**17, 2**17)
        assert_fixed6(k / 128)
        assert texts([1 / 128, 3 / 128], _numtext.fixed6_fields) == ["0.007812", "0.023438"]

    def test_tiny_negatives_keep_their_sign(self):
        tiny = np.array([-1e-9, -0.0, -4.9e-7, -5e-7, -5.000001e-7, 1e-9, 0.0, 5e-7])
        assert_fixed6(tiny)
        assert texts(tiny, _numtext.fixed6_fields)[:2] == ["-0.000000", "-0.000000"]

    def test_both_sides_of_the_2_to_the_33_limit(self):
        limit = 2.0**33
        near = [limit, limit - 0.5, limit - 1e-6, 2**52 / 1e6, 2**53 / 1e6, 1e15, 1e300, FINITE_MAX]
        assert_fixed6(with_neighbours(near + list(limit + np.arange(-300, 300) * 0.25)))

    def test_powers_of_two_and_ten_with_both_neighbours(self):
        powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
        assert_fixed6(with_neighbours(powers))


@pytest.mark.parametrize("kernel", [_numtext.repr_fields, _numtext.fixed6_fields])
@pytest.mark.parametrize("bad, shown", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_non_finite_refused(kernel, bad, shown):
    x = np.linspace(0.0, 1.0, 300)
    x[150] = bad
    message = f"cannot write a number that is not finite: {shown}"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        kernel(x)


def test_table_lays_rows_out_and_drops_only_the_padding():
    x = np.array([1.5, -2.25, 1e-7])
    assert "".join(_numtext.table(["<", x, ">\n"], x.size)) == "".join(f"<{v!r}>\n" for v in x.tolist())
    assert _numtext.table([x, ";"], 0) == []


HOSTILE = ["a\x00b", "Ålborg 農協", "", "%s", "\x00", '"q"', "\xff\x01"]
# int64 and float64 columns: the float64 pair is the largest group of one dtype
STEP = _numtext.CHUNK_VALUES // 2


@pytest.mark.parametrize("kernel, fmt", [(_numtext.repr_fields, repr), (_numtext.fixed6_fields, "%.6f".__mod__)])
@pytest.mark.parametrize("n", [0, 1, STEP - 1, STEP, STEP + 1, 2 * STEP - 1, 2 * STEP, 2 * STEP + 1])
def test_table_against_an_f_string_writer(kernel, fmt, n):
    # a per-row column first, numbers of two dtypes, control bytes in a literal, and a run of literals only
    # between two per-row columns; the ints, below 10**16 in magnitude, as repr_fields writes them
    rng = np.random.default_rng(n)
    ints = rng.integers(-(10**16) + 1, 10**16, n)
    floats = rng.choice([-1.0, 1.0], (2, n)) * np.exp(rng.uniform(-30.0, 30.0, (2, n)))
    ids = [f"{HOSTILE[i % 7]}{i}" for i in range(n)]
    names = [HOSTILE[(i * 3) % 7] for i in range(n)]
    notes = (HOSTILE[(i * 5) % 7] for i in range(n))
    parts = [ids, ",", ints, ",", floats[0], ";\x01", names, "|", "-", notes, ",", floats[1], "\n"]
    want = "".join(f"{ids[i]},{fmt(ints[i].item())},{fmt(floats[0, i].item())};\x01{names[i]}|-"
                   f"{HOSTILE[(i * 5) % 7]},{fmt(floats[1, i].item())}\n" for i in range(n))
    chunks = _numtext.table(parts, n, kernel)
    assert len(chunks) == -(-n // STEP)
    assert "".join(chunks) == want


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_table_of_per_row_text_only(n):
    # no number column: a chunk is CHUNK_VALUES rows; the row ends in a per-row column
    names = [HOSTILE[i % 7] for i in range(n)]
    chunks = _numtext.table(["[", names, "]", (f"{i}\n" for i in range(n))], n)
    assert len(chunks) == -(-n // _numtext.CHUNK_VALUES)
    assert "".join(chunks) == "".join(f"[{name}]{i}\n" for i, name in enumerate(names))


def test_scaled_powers_of_ten_and_the_floor_logarithms():
    # g(k) = floor(10**-k / 2**r) + 1 in [2**125, 2**126), held as 32-bit and as 64-bit limbs
    g = _numtext._tables().g
    for k in range(-324, 293):
        value = sum(int(g[i, k + 324]) << (32 * i) for i in range(4))
        assert value == int(g[4, k + 324]) + (int(g[5, k + 324]) << 64)
        assert 2**125 <= value < 2**126
        assert value - 1 == math.floor(Fraction(10) ** -k / Fraction(2) ** (floor_log2(Fraction(10) ** -k) - 125))
    # the multiply-and-shift floor logarithms that pick k and the shift h are exact over every exponent
    q = np.arange(-1074, 972)
    assert np.array_equal((q * 661_971_961_083) >> 41, [floor_log10(Fraction(2) ** int(e)) for e in q])
    three_quarters = [floor_log10(Fraction(3, 4) * Fraction(2) ** int(e)) for e in q]
    assert np.array_equal((q * 661_971_961_083 - 274_743_187_321) >> 41, three_quarters)
    e = np.arange(-330, 330)
    assert np.array_equal((e * 913_124_641_741) >> 38, [floor_log2(Fraction(10) ** int(x)) for x in e])


def floor_log10(x: Fraction) -> int:
    k = math.floor(math.log10(x))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def floor_log2(x: Fraction) -> int:
    k = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** k > x:
        k -= 1
    while Fraction(2) ** (k + 1) <= x:
        k += 1
    return k

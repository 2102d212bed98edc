"""Soak the array float text of agririsk._numtext against Python's own repr and '%.6f'.

    PYTHONPATH=src python tests/soak_float_text.py SEED [COUNT]

Prints the seed, then checks COUNT random doubles (default 2,000,000) per
kernel: random 64-bit patterns for repr, and for '%.6f' random patterns
below 2**34, where the kernel's own rounding writes the digits, with one in
ten drawn from the whole range. Each batch is a table of one number a row,
written by _numtext.table, of a random row count, so the seed moves the
writer's chunk edges too. Exits 1 at the first batch that differs, naming
the first value that does.
"""

from __future__ import annotations

import sys

import numpy as np

from agririsk import _numtext

BATCH = 100_000


def doubles(rng: np.random.Generator, n: int, top_exponent: int) -> np.ndarray:
    """n finite doubles: random sign and significand bits, biased exponent uniform in 0..top_exponent."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    return (bits | rng.integers(0, top_exponent + 1, n).astype(np.uint64) << np.uint64(52)).view(np.float64)


def first_difference(fields, fmt, x: np.ndarray) -> str | None:
    got = "".join(_numtext.table([x, "\n"], x.size, fields))
    if got == "".join([fmt(value) + "\n" for value in x.tolist()]):
        return None
    value, text = next((v, t) for v, t in zip(x.tolist(), got.splitlines()) if t != fmt(v))
    return f"{value!r}: wrote {text!r}, Python writes {fmt(value)!r}"


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    count = int(argv[1]) if len(argv) > 1 else 2_000_000
    print(f"seed {seed}", flush=True)
    rng = np.random.default_rng(seed)
    for name, fields, fmt, top in (("repr", _numtext.repr_fields, repr, 2046),
                                   ("%.6f", _numtext.fixed6_fields, "%.6f".__mod__, 1023 + 33)):
        done = 0
        while done < count:
            n = min(int(rng.integers(1, 2 * BATCH)), count - done)
            done += n
            x = doubles(rng, n, top)
            x[: n // 10] = doubles(rng, n // 10, 2046)
            problem = first_difference(fields, fmt, x)
            if problem:
                print(f"{name}: {problem}")
                return 1
        print(f"{name}: {count} doubles match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads: fixed lists of CLI command lines.

A pass runs a workload's operations once, one after another. Placeholders
``{book}`` and ``{seed}`` are filled from the run's inputs and ``--seed``.
``cli`` is the command timed as a cold subprocess for ``cli_s``; ``parity``
commands are run as subprocesses once per run, untimed, only to byte-compare
their files with the matching in-process operation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    ops: tuple[tuple[str, ...], ...]
    cli: tuple[str, ...]
    parity: tuple[tuple[str, ...], ...] = ()
    book_obligors: int = 0  # > 0: generate a seeded book of this many obligors as {book}


_BOOK_FLAGS = ("--input", "{book}", "--rate", "0.03", "--horizon", "1")

WORKLOADS = {
    # The FFT kernel is most of analyze time, to_csv most of dist time and
    # the sampler most of simulate time; simulate runs only here, its two
    # modes drawing different variates. Per-obligor runs at unit 2, not 1,
    # and simulate draws 500,000, not 1e6, to keep every operation short
    # enough for several repeats in a run.
    "eu22-fft": Workload(
        ops=(
            ("analyze", "--sector-mode", "single", "--unit", "1"),
            ("analyze", "--sector-mode", "single", "--unit", "10"),
            ("analyze", "--sector-mode", "crop-livestock", "--unit", "1"),
            ("analyze", "--sector-mode", "crop-livestock", "--unit", "10"),
            ("analyze", "--sector-mode", "per-obligor", "--unit", "2"),
            ("analyze", "--sector-mode", "per-obligor", "--unit", "10"),
            ("dist",),
            ("simulate", "--n-draws", "500000", "--seed", "{seed}"),
            ("simulate", "--n-draws", "500000", "--seed", "{seed}", "--mc-mode", "bernoulli-exact"),
        ),
        cli=("analyze",),
        parity=(("dist",), ("simulate", "--n-draws", "500000", "--seed", "{seed}")),
    ),
    # Crop-livestock runs at unit 2 (smallest band level 7, about 1.2 s)
    # rather than unit 1 (level 14, about 2.9 s), and per-obligor Panjer is
    # left out (about a minute at unit 1, 5 s at unit 10), so that a run
    # repeats every operation several times. Crop-livestock at unit 10 has
    # smallest band level 2, where a blocked recursion has nothing to gain.
    "eu22-panjer": Workload(
        ops=(
            ("analyze", "--backend", "panjer", "--unit", "2"),
            ("analyze", "--backend", "panjer", "--unit", "10"),
            ("analyze", "--backend", "panjer", "--sector-mode", "single", "--unit", "10"),
        ),
        cli=("analyze", "--backend", "panjer", "--unit", "2"),
    ),
    # The opposite split to eu22-fft: per-obligor Python stages dominate.
    "book-20k": Workload(
        ops=(
            ("analyze", *_BOOK_FLAGS),
            ("analyze", *_BOOK_FLAGS, "--sector-mode", "single"),
        ),
        cli=("analyze", *_BOOK_FLAGS),
        book_obligors=20_000,
    ),
}

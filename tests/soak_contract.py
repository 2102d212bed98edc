"""Fuzz the command line's run contract: a finite output or a one-line refusal.

    PYTHONPATH=src python tests/soak_contract.py SEED [COUNT]

Prints the seed, then runs COUNT cases (default 2000). Each case is a book
and a flag set drawn from numpy's generator at that seed: exposures from
1e-300 to 1.5e308, loss rates at 0, tiny and near 1, rate volatilities
around the gamma gates (cv 1e-154 and beta 2**50), units from 1e-2 to
1e300, explicit grids, levels near 0 and 1, discounting, sector rate
overrides, every command, sector mode, backend and Monte Carlo mode, and
small draw counts. Each case runs agririsk.cli.main in process, with
warnings raised as errors, and must keep the contract:

- the exit code is 0, 1 or 2;
- a refusal (1 or 2) prints exactly one line on stderr, no traceback, and
  writes nothing to --out; validate's exit 1 instead lists an error finding
  on stdout and leaves stderr empty;
- on exit 0 every number printed or written is finite, and every JSON file
  parses under a parse_constant that raises;
- an analyze or dist case that exits 0 on --backend fft is run again on
  --backend panjer, which must keep the contract and exit 0 as well, and
  analyze must write the same quantiles.csv byte for byte.

While it runs, the grid limit is 2**16 points, so that no case allocates
more than half a MiB per array; a run past it takes the same refusal path
as one past the full limit. Exits 1 at the first case that breaks the
contract, printing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

from agririsk import cli, engine

GRID_LIMIT = 1 << 16
HEADER = "id,name,exposure,mean_loss_rate,loss_rate_stddev,crop_ratio,livestock_ratio"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
NOT_FINITE = re.compile(r"(?i)(?<![a-z])(?:inf|infinity|nan)(?![a-z])")
LEVELS = (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.999, 1 - 1e-12)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(lo, hi))


def _kind(rng: np.random.Generator, *weights: float) -> int:
    return int(rng.choice(len(weights), p=np.array(weights) / sum(weights)))


def _mean_rate(rng: np.random.Generator) -> float:
    kind = _kind(rng, 2, 3, 10, 3, 2)
    return [0.0, _log_uniform(rng, -300, -1), float(rng.uniform()), 1.0 - _log_uniform(rng, -16, -1), 1.0][kind]


def _stddev(rng: np.random.Generator, mean: float) -> float:
    kind = _kind(rng, 3, 2, 10, 2, 3)
    if kind == 4:  # any size, whatever the mean
        return _log_uniform(rng, -170, 10)
    # none, a cv around the 1e-154 shape gate, an ordinary one, or one whose gamma scale can pass 2**50
    return mean * [0.0, _log_uniform(rng, -160, -148), _log_uniform(rng, -3, 1), _log_uniform(rng, 4, 12)][kind]


def _ratios(rng: np.random.Generator) -> tuple[float, float]:
    kind = _kind(rng, 6, 6, 9, 6, 2, 1)
    crop = float(rng.uniform())
    return [(1.0, 0.0), (0.0, 1.0), (crop, 1.0 - crop), (crop, float(rng.uniform())), (1e-320, 1.0), (0.0, 0.0)][kind]


def book(rng: np.random.Generator) -> tuple[str, list[float]]:
    """A portfolio CSV of one to six obligors, and its exposures."""
    declared = bool(rng.integers(2))
    lines, exposures = [HEADER + (",expected_loss" if declared else "")], []
    for i in range(int(rng.integers(1, 7))):
        kind = _kind(rng, 5, 1, 12, 2)
        exposure = [_log_uniform(rng, -300, 308), 1.5e308, _log_uniform(rng, 0, 6), _log_uniform(rng, 300, 308)][kind]
        exposure = min(exposure, 1.5e308)
        mean = _mean_rate(rng)
        row = [f"R{i}", f"r{i}", repr(exposure), repr(mean), repr(_stddev(rng, mean)), *map(repr, _ratios(rng))]
        if declared:
            row.append(["", repr(exposure * mean), repr(exposure * mean * 1.5)][rng.integers(3)])
        lines.append(",".join(row))
        exposures.append(exposure)
    return "\n".join(lines) + "\n", exposures


def flags(rng: np.random.Generator, exposures: list[float]) -> list[str]:
    """A command and its flags, without --input and --out."""
    command = ["analyze", "analyze", "dist", "simulate", "simulate", "validate"][rng.integers(6)]
    if command == "validate":
        return [command, "--tolerance", repr([0.0, 0.02, 0.5, 10.0][rng.integers(4)])]
    args = [command, "--sector-mode", ["crop-livestock", "single", "per-obligor"][rng.integers(3)],
            "--backend", ["fft", "panjer"][rng.integers(2)]]
    # mostly a unit that bands the largest exposure at up to a few thousand units, else any unit
    unit = max(exposures) / _log_uniform(rng, -1, 3.5) if rng.integers(5) else _log_uniform(rng, -2, 300)
    args += ["--unit", repr(min(max(unit, 1e-2), 1e300))]
    if rng.integers(5) == 0:
        args += ["--grid", str([1, 16, int(rng.integers(2, 5000)), GRID_LIMIT + 1][rng.integers(4)])]
    if rng.integers(3) == 0:
        picked = rng.choice(len(LEVELS), size=int(rng.integers(1, 4)), replace=False)
        args += ["--levels", ",".join(repr(LEVELS[i]) for i in sorted(picked))]
    if rng.integers(6) == 0:
        args += ["--rate", repr([-0.99, -0.5, 0.03, 10.0, 800.0][rng.integers(5)]),
                 "--horizon", repr([0.0, 1.0, 30.0, 1419.0][rng.integers(4)])]
    if rng.integers(6) == 0:
        name = ["crop", "livestock", "portfolio", "R0"][rng.integers(4)]
        sigma = [0.0, 1e-160, 0.01, 1e8][rng.integers(4)]
        args += ["--sector-rate", f"{name}={_mean_rate(rng)!r},{sigma!r}"]
    if command == "simulate":
        args += ["--n-draws", str(int(rng.integers(1, 3000))), "--seed", str(int(rng.integers(1000))),
                 "--mc-mode", ["poisson-banded", "bernoulli-exact"][rng.integers(2)]]
        if rng.integers(2):
            args += ["--dump-samples", "SAMPLES"]
    return args


def run(argv: list[str]) -> tuple[int | str, str, str]:
    """cli.main(argv) with warnings as errors: (exit code, or the traceback of what escaped; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    limit, engine.MAX_GRID = engine.MAX_GRID, GRID_LIMIT
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            status = cli.main(argv)
    except (Exception, SystemExit):  # a traceback of any kind breaks the contract
        status = traceback.format_exc()
    finally:
        engine.MAX_GRID = limit
    return status, out.getvalue(), err.getvalue()


def broken(command: str, status: int | str, stdout: str, stderr: str, files: dict[str, str]) -> str | None:
    """What a finished run did against the contract, or None."""
    if not isinstance(status, int):
        return f"raised:\n{status}"
    if status not in (0, 1, 2):
        return f"exit {status}"
    if command == "validate" and status == 1:
        return None if stderr == "" and "\nerror " in "\n" + stdout else "exit 1 with no error finding"
    if status:
        if stderr.count("\n") != 1 or not stderr.endswith("\n") or "Traceback" in stderr:
            return f"exit {status} with stderr {stderr!r}"
        return f"exit {status}, yet wrote {sorted(files)}" if files else None
    if stderr:
        return f"exit 0 with stderr {stderr!r}"

    def constant(name):
        raise ValueError(f"JSON constant {name}")

    for name, text in {"stdout": stdout, **files}.items():
        if NOT_FINITE.search(text):
            return f"{name} holds {NOT_FINITE.search(text).group()!r}"
        number = next((m.group() for m in NUMBER.finditer(text) if not math.isfinite(float(m.group()))), None)
        if number:
            return f"{name} holds {number}, past the largest float"
        if name.endswith(".json"):
            try:
                json.loads(text, parse_constant=constant)
            except ValueError as exc:
                return f"{name} does not parse: {exc}"
    return None


def attempt(argv: list[str], text: str, work: Path) -> tuple[int | str, str, str, dict[str, str]]:
    """Run argv on the book text in a fresh directory work: (status, stdout, stderr, written files by name)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "book.csv").write_text(text, encoding="utf-8")
    full = [part.replace("SAMPLES", str(work / "samples.csv")) for part in argv]
    full += ["--input", str(work / "book.csv")] + (["--out", str(work / "out")] if argv[0] != "validate" else [])
    status, stdout, stderr = run(full)
    written = [*(work / "out").glob("*"), *work.glob("samples.csv")]
    # the run's own paths are masked, so that a temporary name cannot read as a number or as inf
    files = {path.name: path.read_text(encoding="utf-8").replace(str(work), "WORK") for path in written}
    return status, stdout.replace(str(work), "WORK"), stderr, files


def panjer_disagrees(argv: list[str], text: str, work: Path, fft_files: dict[str, str]) -> str | None:
    """How the Panjer rerun of an FFT run that exited 0 breaks the contract or disagrees with it, or None."""
    backend = argv.index("--backend") + 1
    status, stdout, stderr, files = attempt([*argv[:backend], "panjer", *argv[backend + 1:]], text, work)
    problem = broken(argv[0], status, stdout, stderr, files)
    if problem or status:
        return f"exit 0 on fft, but on panjer: {problem or f'exit {status} with stderr {stderr!r}'}"
    if argv[0] == "analyze" and files["quantiles.csv"] != fft_files["quantiles.csv"]:
        return f"quantiles.csv on fft:\n{fft_files['quantiles.csv']}and on panjer:\n{files['quantiles.csv']}"
    return None


def first_broken(seed: int, count: int, work: Path) -> str | None:
    """Run count cases at seed in the directory work; the first that breaks the contract, described, or None."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        text, exposures = book(rng)
        argv = flags(rng, exposures)
        status, stdout, stderr, files = attempt(argv, text, work)
        problem = broken(argv[0], status, stdout, stderr, files)
        if not problem and status == 0 and argv[0] in ("analyze", "dist") and "fft" in argv:
            problem = panjer_disagrees(argv, text, work, files)
        if problem:
            return f"seed {seed} case {case}: agririsk {' '.join(argv)}\n{text}{problem}"
    return None


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    count = int(argv[1]) if len(argv) > 1 else 2000
    print(f"seed {seed}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        problem = first_broken(seed, count, Path(tmp) / "case")
    if problem:
        print(problem)
        return 1
    print(f"{count} cases keep the contract")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

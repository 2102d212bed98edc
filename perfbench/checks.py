"""Output checks for benchmark operations, at the repository's own tolerances.

Each check returns a list of problems; an empty list means the output passed.
A faster operation whose output fails any check counts as a failed operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PMF_SUM_SLACK = 1e-9  # pmf may sum to at most 1 + 1e-9
MEAN_REL_TOL = 1e-6  # pmf mean against the analytic mean
ADDITIVITY_REL_TOL = 1e-9  # contribution columns against the VaR
BACKEND_TV_TOL = 1e-8  # Panjer against FFT on the same grid
MC_MEAN_STDERRS = 4.0  # Monte Carlo mean against the model mean
TAIL_NEGLIGIBLE = 1e-12  # P(loss > x) below this marks the useful end of the grid


def pmf(pmf: np.ndarray, analytic_mean_units: float) -> list[str]:
    """Sum at most 1 + 1e-9; mean within 1e-6 relative of the analytic mean (grid units)."""
    problems = []
    total = float(pmf.sum())
    if total > 1.0 + PMF_SUM_SLACK:
        problems.append(f"pmf sums to {total!r} > 1 + {PMF_SUM_SLACK}")
    mean = float(np.dot(np.arange(pmf.size, dtype=float), pmf))
    gap = abs(mean - analytic_mean_units) / analytic_mean_units
    if gap > MEAN_REL_TOL:
        problems.append(f"pmf mean {mean!r} is {gap:.3e} relative from analytic {analytic_mean_units!r}")
    return problems


def quantiles(got: list[tuple[float, float]], expected: list[tuple[float, float]]) -> list[str]:
    """(level, loss) pairs must land on exactly the stored grid points."""
    if [lvl for lvl, _ in got] != [lvl for lvl, _ in expected]:
        return [f"quantile levels {[lvl for lvl, _ in got]} differ from {[lvl for lvl, _ in expected]}"]
    return [
        f"quantile at {lvl!r} is {loss!r}, expected {want!r}"
        for (lvl, loss), (_, want) in zip(got, expected)
        if loss != want
    ]


def contributions(columns: list[list[float]], var: list[float]) -> list[str]:
    """Each level's contributions must sum to that level's VaR within 1e-9 relative."""
    problems = []
    for column, value in zip(columns, var):
        total = math.fsum(column)
        gap = abs(total - value) / abs(value)
        if gap > ADDITIVITY_REL_TOL:
            problems.append(f"contributions sum to {total!r}, VaR {value!r} ({gap:.3e} relative)")
    return problems


def total_variation(pmf: np.ndarray, reference: np.ndarray) -> list[str]:
    """Total variation distance to the reference pmf must stay within 1e-8."""
    if pmf.size != reference.size:
        return [f"pmf has {pmf.size} points, reference {reference.size}"]
    tv = 0.5 * float(np.abs(pmf - reference).sum())
    return [f"total variation {tv:.3e} > {BACKEND_TV_TOL}"] if tv > BACKEND_TV_TOL else []


def mc_mean(mean: float, stddev: float, n_draws: int, model_mean: float) -> list[str]:
    """The sample mean must lie within 4 standard errors of the model mean."""
    stderr = stddev / math.sqrt(n_draws)
    if abs(mean - model_mean) > MC_MEAN_STDERRS * stderr:
        return [f"Monte Carlo mean {mean!r} is more than 4 stderr ({stderr!r}) from {model_mean!r}"]
    return []


def same_files(a: Path, b: Path, names: list[str]) -> list[str]:
    """Files of the same name in two output directories must be byte-identical."""
    problems = []
    for name in names:
        try:
            if (a / name).read_bytes() != (b / name).read_bytes():
                problems.append(f"{name} differs between {a} and {b}")
        except FileNotFoundError as exc:
            problems.append(f"{name}: {exc}")
    return problems


def useful_points(pmf: np.ndarray) -> int:
    """Index of the first grid point x with P(loss > x) <= 1e-12, the tail summed from the top."""
    at_or_above = np.cumsum(pmf[::-1])[::-1]
    exceeds = np.append(at_or_above[1:], 0.0)
    return int(np.argmax(exceeds <= TAIL_NEGLIGIBLE))


def same_json_blocks(a: Path, b: Path, keys: list[str]) -> list[str]:
    """Two JSON files must hold equal values under each of the given top-level keys."""
    try:
        left = json.loads(a.read_text(encoding="utf-8"))
        right = json.loads(b.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        return [str(exc)]
    return [f"{key!r} differs between {a} and {b}" for key in keys if left[key] != right[key]]

"""Obligor-level portfolio data: CSV parsing, validation, discounting, sector assignment."""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from functools import cached_property
from importlib import resources
from itertools import chain, compress, permutations
from pathlib import Path

import numpy as np

from .errors import InputError

SECTOR_MODES = ("single", "crop-livestock", "per-obligor")
MC_MODES = ("poisson-banded", "bernoulli-exact")

# required CSV columns, in order; expected_loss and a rating column
# (accepted and ignored) may follow, each at most once and in either order
CSV_COLUMNS = (
    "id",
    "name",
    "exposure",
    "mean_loss_rate",
    "loss_rate_stddev",
    "crop_ratio",
    "livestock_ratio",
)
_OPTIONAL_COLUMNS = ("expected_loss", "rating")
# the headers whose body numpy's C reader reads, and the columns it reads as text
_HEADERS = {CSV_COLUMNS + extra for k in range(3) for extra in permutations(_OPTIONAL_COLUMNS, k)}
_TEXT_COLUMNS = ("id", "name", "rating")
_BLANK = re.compile(r"\s*")

# crop/livestock ratios are renormalized when their sum misses 1 by more than this
RATIO_RENORM_TOL = 1e-9
_MAX_LOG_FACTOR = math.log(sys.float_info.max)  # largest -rate * horizon whose exp is finite

# each numeric column's range, as messages state it, and the test of each range; a value
# that is not finite is refused before any range is checked
_RANGES = {"exposure": "> 0", "mean_loss_rate": "in [0, 1]", "loss_rate_stddev": ">= 0",
           "crop_ratio": "in [0, 1]", "livestock_ratio": "in [0, 1]"}
_HOLDS = {"> 0": lambda x: x > 0.0, ">= 0": lambda x: x >= 0.0, "in [0, 1]": lambda x: (0.0 <= x) & (x <= 1.0)}

# one row per sub-exposure: the obligor's index in SectoredPortfolio.obligor_ids, the sector's
# index in its names, the amount in the sector, and the obligor's own mean loss rate
SUB_DTYPE = np.dtype([("obligor", np.int64), ("sector", np.int64), ("amount", np.float64), ("loss_rate", np.float64)])


def _first_fault(ids: tuple[str, ...], numbers, declared: np.ndarray, malformed=()) -> tuple[int, str] | None:
    """The first obligor that breaks a rule and the message of its first broken rule, or None.

    numbers are the numeric columns, in Portfolio's field order. A rule is
    (where it is broken, a template formatting an obligor's id and its
    entry in a column, that column). Within an obligor they run in this order:
    malformed, a non-empty id, finite numbers (a declared expected loss only
    where declared), then each column's range.
    """
    rules = [*malformed, (np.fromiter(map(len, ids), np.int64, len(ids)) == 0, "obligor id must be non-empty", ids)]
    columns = dict(zip((f.name for f in fields(Portfolio)[2:]), numbers))
    for field, values in columns.items():
        bad = ~np.isfinite(values)
        if field == "expected_loss_declared":
            bad &= declared
        rules.append((bad, f"obligor {{}}: {field} must be finite, got {{}}", values))
    rules += [(~_HOLDS[rule](columns[field]), f"obligor {{}}: {field} must be {rule}, got {{}}", columns[field])
              for field, rule in _RANGES.items()]
    broken = np.array([bad for bad, _, _ in rules])  # (rules, obligors)
    if not broken.any():
        return None
    i = int(np.argmax(broken.any(axis=0)))
    _, message, column = rules[int(np.argmax(broken[:, i]))]
    return i, message.format(ids[i], column[i])


@dataclass(frozen=True, eq=False)
class Portfolio:
    """Ordered obligors with unique ids, stored as columns and checked once when built.

    ids and names are tuples of str; every other field is a float64 array
    with one entry per obligor. Exposure is in millions of currency units;
    rates are dimensionless fractions (0.0312, never 3.12). The declared
    expected loss, NaN where none was declared, is used only for consistency
    checks.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    exposure: np.ndarray
    mean_loss_rate: np.ndarray
    loss_rate_stddev: np.ndarray
    crop_ratio: np.ndarray
    livestock_ratio: np.ndarray
    expected_loss_declared: np.ndarray

    def __post_init__(self):
        numbers = {f.name: np.asarray(getattr(self, f.name), np.float64) for f in fields(self)[2:]}
        for name, value in (("ids", tuple(self.ids)), ("names", tuple(self.names)), *numbers.items()):
            object.__setattr__(self, name, value)
        n = len(self.ids)
        if not n:
            raise InputError("empty portfolio")
        if len(self.names) != n or any(v.shape != (n,) for v in numbers.values()):
            raise InputError("portfolio: ids, names and each numeric column need one entry per obligor")
        fault = _first_fault(self.ids, numbers.values(), ~np.isnan(self.expected_loss_declared))
        if fault:
            raise InputError(fault[1])
        if len(set(self.ids)) < n:
            first: dict[str, int] = {}  # each id's first index
            repeat = next(i for k, i in enumerate(self.ids) if first.setdefault(i, k) != k)
            raise InputError(f"duplicate obligor id {repeat!r}")
        with np.errstate(over="ignore"):  # a sum past the largest float is refused here, not warned about
            if not self.total_exposure < math.inf:
                raise InputError(f"total exposure overflows: the exposures sum past {sys.float_info.max!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """Each obligor as a named tuple of its fields, built on demand: a row view that perfbench's tests read."""
        columns = (getattr(self, f.name).tolist() for f in fields(self)[2:])
        return map(_Obligor._make, zip(self.ids, self.names, *columns))

    # both totals add left to right: the builtin sum is compensated since Python 3.12
    @property
    def total_exposure(self) -> float:
        return float(np.cumsum(self.exposure)[-1])

    @property
    def total_expected_loss(self) -> float:
        return float(np.cumsum(self.exposure * self.mean_loss_rate)[-1])


_Obligor = namedtuple("Obligor", ["id", "name", *(f.name for f in fields(Portfolio)[2:])])


@dataclass(frozen=True)
class DiscountSpec:
    """Continuously compounded present-value discounting over a horizon in years."""

    rate: float = 0.0
    horizon: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.horizon)):
            raise InputError(f"discount rate and horizon must be finite, got {self.rate} and {self.horizon}")
        if self.horizon < 0:
            raise InputError(f"discount horizon must be >= 0, got {self.horizon}")
        if self.rate <= -1.0:
            raise InputError(f"discount rate must be > -1, got {self.rate}")
        if -self.rate * self.horizon > _MAX_LOG_FACTOR:
            raise InputError(f"discount factor overflows at rate {self.rate} over horizon {self.horizon}")
        if self.factor == 0.0:
            raise InputError(f"discount factor underflows to 0 at rate {self.rate} over horizon {self.horizon}")

    @property
    def factor(self) -> float:
        return math.exp(-self.rate * self.horizon)


@dataclass(frozen=True)
class SectorAssignment:
    """How obligors map to gamma-mixed sectors.

    sector_rates optionally overrides the (mean, stddev) loss rate of a
    named sector; when omitted, sector rates default to sub-exposure
    weighted averages of the member obligors' rates. per-obligor mode
    always uses each obligor's own rates.
    """

    mode: str = "crop-livestock"
    sector_rates: dict[str, tuple[float, float]] | None = None

    def __post_init__(self):
        if self.mode not in SECTOR_MODES:
            raise InputError(f"unknown sector mode {self.mode!r}; expected one of {SECTOR_MODES}")
        if self.mode == "per-obligor" and self.sector_rates:
            raise InputError("per-obligor mode derives rates from the obligors; overrides not allowed")
        for name, values in (self.sector_rates or {}).items():
            if not all(math.isfinite(v) for v in values):
                raise InputError(f"sector {name!r}: rate overrides must be finite, got {values}")


@dataclass(frozen=True, eq=False)
class Sector:
    """A named sector's rates and its sub-exposures, its slice of SectoredPortfolio.subs."""

    name: str
    mean_rate: float
    stddev_rate: float
    subs: np.ndarray


@dataclass(frozen=True, eq=False)
class SectoredPortfolio:
    """Portfolio after sector assignment, stored as columns and checked once when built; input to banding.

    names and the float64 mean_rate and stddev_rate run over sectors; subs is
    one SUB_DTYPE table of every sub-exposure, sector by sector in names order.
    """

    names: tuple[str, ...]
    mean_rate: np.ndarray
    stddev_rate: np.ndarray
    obligor_ids: tuple[str, ...]
    subs: np.ndarray

    def __post_init__(self):
        for name in ("mean_rate", "stddev_rate"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), np.float64))
        n, mean, stddev, subs = len(self.names), self.mean_rate, self.stddev_rate, self.subs
        if mean.shape != (n,) or stddev.shape != (n,):
            raise InputError("sectored portfolio: names, mean_rate and stddev_rate need one entry per sector")
        if not (isinstance(subs, np.ndarray) and subs.ndim == 1 and subs.dtype == SUB_DTYPE):
            raise InputError(f"sectored portfolio: subs must be a 1-d array of {SUB_DTYPE} rows")
        if np.any(np.diff(subs["sector"], prepend=0, append=n - 1) < 0):
            raise InputError(f"sub-exposure sector indexes must run in order within 0..{n - 1}")
        # a zero mean rate must not band into a Poisson sector with its volatility dropped
        bad = (mean < 0.0) | (stddev < 0.0) | ((mean == 0.0) & (stddev > 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            rule = "rates must be nonnegative" if min(mean[k], stddev[k]) < 0.0 else (
                "zero mean rate with positive volatility has no gamma parameterization")
            raise InputError(f"sector {self.names[k]!r}: {rule}")

    @cached_property
    def sectors(self) -> tuple[Sector, ...]:
        """Each sector as a Sector whose subs are its slice of the table, built on demand."""
        ends = np.cumsum(np.bincount(self.subs["sector"], minlength=len(self.names)))[:-1]
        rates = self.mean_rate.tolist(), self.stddev_rate.tolist()
        return tuple(map(Sector, self.names, *rates, np.split(self.subs, ends)))


@dataclass(frozen=True)
class ValidationFinding:
    """A data-consistency observation; findings are data, not failures."""

    kind: str  # "expected_loss_mismatch" | "ratio_sum"
    severity: str  # "warning" | "error"
    obligor_id: str
    message: str


def _floats(column: str, cells) -> tuple[np.ndarray, tuple]:
    """float() of each cell, NaN where it refuses one, and the _first_fault rule that none is malformed."""
    parsed = list(map(_float_or_none, cells))
    values, bad = np.array(parsed, np.float64), np.array([v is None for v in parsed], bool)
    return values, (bad, f"malformed {column}: {{1!r}}", cells)


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def parse_portfolio(csv_text: str) -> Portfolio:
    """Parse portfolio CSV text into a Portfolio.

    Header row is mandatory; columns are id,name,exposure,mean_loss_rate,
    loss_rate_stddev,crop_ratio,livestock_ratio, then optionally
    expected_loss and rating, each at most once and in either order.
    Rates must already be fractions; percent signs are not interpreted.
    Fields follow RFC 4180 double-quote quoting; rows whose cells are all
    blank are skipped, and every cell is stripped of surrounding whitespace.
    An error names the first faulty row, by its first fault in _first_fault's order.

    After a valid header, numpy's C reader reads the body in one call. A
    body it refuses, or that holds a fault, a declared NaN or a field over
    csv's size limit, is parsed again by _parse_rows, which alone raises.
    """
    stream = io.StringIO(csv_text)
    try:
        header = tuple(map(str.strip, next(r for r in csv.reader(stream) if any(map(str.strip, r)))))
    except (StopIteration, csv.Error):
        header = ()
    # a blank body would make loadtxt warn that it read no data
    if header not in _HEADERS or _BLANK.fullmatch(csv_text, stream.tell()):
        return _parse_rows(csv_text)
    dtype = np.dtype([(c, object if c in _TEXT_COLUMNS else np.float64) for c in header])
    try:
        table = np.loadtxt(stream, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:  # a row of another length, or a cell float() reads differently or not at all
        return _parse_rows(csv_text)
    text = [table[c].tolist() for c in header if c in _TEXT_COLUMNS]  # id and name come first
    declared = np.ascontiguousarray(table["expected_loss"]) if "expected_loss" in header else None
    # a declared nan must be refused by row, not read as undeclared
    if max(map(len, chain(*text))) > csv.field_size_limit() or (declared is not None and np.isnan(declared).any()):
        return _parse_rows(csv_text)
    numbers = [np.ascontiguousarray(table[c]) for c in CSV_COLUMNS[2:]]
    try:
        return Portfolio(*(tuple(map(str.strip, column)) for column in text[:2]), *numbers,
                         np.full(len(table), np.nan) if declared is None else declared)
    except InputError:  # reported by row
        return _parse_rows(csv_text)


def _parse_rows(csv_text: str) -> Portfolio:
    """parse_portfolio cell by cell, from csv.reader's rows: the reference and the path that names a faulty row.

    "row N" in an error is line N of the text: the first line of the faulty
    record, or for malformed CSV the line the reader stopped on, so blank
    lines and names that hold a line break are counted.
    """
    rows: list[list[str]] = []
    lines: list[int] = []  # each kept row's first line
    reader = csv.reader(io.StringIO(csv_text))
    start = 1
    try:
        for row in reader:
            if any(map(str.strip, row)):
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as error:
        raise InputError(f"row {reader.line_num}: malformed CSV: {error}") from None
    if not rows:
        raise InputError("empty portfolio: no header row")
    header = tuple(h.strip() for h in rows[0])
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
        raise InputError(
            f"bad header: expected columns {','.join(CSV_COLUMNS)}, then optionally expected_loss and rating, "
            f"each at most once and in either order, but got {','.join(header)}"
        )
    extras = header[len(CSV_COLUMNS) :]
    for i, col in enumerate(extras):
        if col not in _OPTIONAL_COLUMNS:
            raise InputError(f"bad header: unknown column {col!r}")
        if col in extras[:i]:
            raise InputError(f"bad header: repeated column {col!r}")
    body = rows[1:]
    if not body:
        raise InputError("empty portfolio: header only")

    # the rows before the first of another length; a fault in one of them is reported first
    wrong = np.flatnonzero(np.fromiter(map(len, body), np.int64, len(body)) != len(header))
    n = int(wrong[0]) if wrong.size else len(body)
    columns = [tuple(map(str.strip, column)) for column in zip(*body[:n])] or [()] * len(header)
    declared = np.array(columns[header.index("expected_loss")] if "expected_loss" in extras else [""] * n, object)
    cells = [*zip(CSV_COLUMNS[2:], columns[2:]), ("expected_loss", np.where(declared == "", "nan", declared))]
    numbers, malformed = zip(*(_floats(column, c) for column, c in cells))
    fault = _first_fault(columns[0], numbers, declared != "", malformed)
    if fault:
        raise InputError(f"row {lines[fault[0] + 1]}: {fault[1]}")
    if n < len(body):
        raise InputError(f"row {lines[n + 1]}: expected {len(header)} fields, got {len(body[n])}")
    return Portfolio(columns[0], columns[1], *numbers)


def load_portfolio(path: str | Path) -> Portfolio:
    """Read a portfolio CSV; a leading UTF-8 byte-order mark, as spreadsheets write, is dropped."""
    return parse_portfolio(Path(path).read_text(encoding="utf-8-sig"))


def bundled_dataset_path() -> Path:
    """Path of the packaged 22-state example dataset."""
    return Path(str(resources.files("agririsk").joinpath("data/table1_eu22.csv")))


def validate_portfolio(portfolio: Portfolio, tol: float = 0.02) -> list[ValidationFinding]:
    """Cross-check declared expected losses and crop/livestock ratio sums.

    An obligor whose exposure * mean_loss_rate differs from its declared
    expected loss by more than tol (relative to max(declared, 1)) yields an
    error-severity finding; ratio sums outside [1 - tol, 1 + tol] yield
    warnings.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"validation tolerance must be finite and >= 0, got {tol}")
    expected, declared = portfolio.exposure * portfolio.mean_loss_rate, portfolio.expected_loss_declared
    mismatch = np.abs(expected - declared) / np.maximum(declared, 1.0) > tol  # False where none was declared
    ratio_sum = portfolio.crop_ratio + portfolio.livestock_ratio
    off = ~((1.0 - tol <= ratio_sum) & (ratio_sum <= 1.0 + tol))
    findings: list[ValidationFinding] = []
    for i in np.flatnonzero(mismatch | off).tolist():
        oid = portfolio.ids[i]
        if mismatch[i]:
            findings.append(ValidationFinding("expected_loss_mismatch", "error", oid, (
                f"exposure * mean_loss_rate = {expected[i]:.6g} but declared expected loss is {declared[i]:.6g}")))
        if off[i]:
            findings.append(ValidationFinding("ratio_sum", "warning", oid, (
                f"crop_ratio + livestock_ratio = {ratio_sum[i]:.6g}; ratios are renormalized in crop-livestock mode")))
    return findings


def discount_exposures(portfolio: Portfolio, spec: DiscountSpec) -> Portfolio:
    """Scale every exposure to present value by exp(-rate * horizon); the result is checked as built."""
    with np.errstate(over="ignore"):  # an exposure that overflows is refused by name, not warned about
        return replace(portfolio, exposure=portfolio.exposure * spec.factor)


def _split_ratios(portfolio: Portfolio) -> np.ndarray:
    # (2, obligors): crop and livestock shares, renormalized where their sum misses 1
    total = portfolio.crop_ratio + portfolio.livestock_ratio
    if not np.all(total > 0.0):
        oid = portfolio.ids[int(np.argmin(total > 0.0))]
        raise InputError(f"obligor {oid}: crop and livestock ratios are both zero; cannot split")
    ratios = np.stack((portfolio.crop_ratio, portfolio.livestock_ratio))
    return np.where(np.abs(total - 1.0) > RATIO_RENORM_TOL, ratios / total, ratios)


def assign_sectors(portfolio: Portfolio, assignment: SectorAssignment) -> SectoredPortfolio:
    """Split each obligor's exposure across sectors per the assignment mode.

    single: one sector holding every full exposure; crop-livestock: two
    sectors fed by the (renormalized) ratio split, a sub whose amount is 0
    and a sector without subs left out; per-obligor: one sector per obligor,
    with its own rates. Each sub-exposure keeps its obligor's own mean loss
    rate, and the other modes' sector rates are the subs' amount-weighted
    averages. All subs form one SUB_DTYPE table in sector order.
    """
    overrides = assignment.sector_rates or {}
    ids, mean, stddev = portfolio.ids, portfolio.mean_loss_rate, portfolio.loss_rate_stddev
    if assignment.mode == "per-obligor":
        names, sector, obligor, amount = ids, np.arange(len(ids)), np.arange(len(ids)), portfolio.exposure
        rates = [mean, stddev]
    else:
        if assignment.mode == "single":
            names, shares = ("portfolio",), np.ones((1, len(ids)))
        else:
            names, shares = ("crop", "livestock"), _split_ratios(portfolio)
        # a share can underflow the amount to 0: that sub carries no exposure and no loss
        amounts = portfolio.exposure * shares
        held = (amounts > 0.0).any(axis=1)
        names, amounts = tuple(compress(names, held)), amounts[held]
        sector, obligor = np.nonzero(amounts > 0.0)  # sector by sector, obligors in order
        amount = amounts[sector, obligor]
        weight = np.bincount(sector, amount)  # sums in table order
        with np.errstate(over="ignore"):  # a volatility sum past the largest float: band_exposures refuses its inf
            rates = [np.bincount(sector, amount * r[obligor]) / weight for r in (mean, stddev)]
        for name in set(overrides) & set(names):
            k = names.index(name)
            rates[0][k], rates[1][k] = overrides[name]
    table = np.empty(obligor.size, SUB_DTYPE)
    table["obligor"], table["sector"], table["amount"], table["loss_rate"] = obligor, sector, amount, mean[obligor]
    sectored = SectoredPortfolio(names, *rates, ids, table)
    unknown = set(overrides) - set(names)
    if unknown:
        raise InputError(f"sector rate overrides for unknown sectors: {sorted(unknown)}")
    return sectored

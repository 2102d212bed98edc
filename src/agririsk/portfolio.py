"""Obligor-level portfolio data: CSV parsing, validation, discounting, sector assignment."""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InputError

SECTOR_MODES = ("single", "crop-livestock", "per-obligor")
MC_MODES = ("poisson-banded", "bernoulli-exact")

# required CSV columns, in order; expected_loss and a trailing rating
# column (accepted and ignored) may follow
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

# crop/livestock ratios are renormalized when their sum misses 1 by more than this
RATIO_RENORM_TOL = 1e-9
_MAX_LOG_FACTOR = math.log(sys.float_info.max)  # largest -rate * horizon whose exp is finite

# ObligorRecord fields that must be finite numbers (expected_loss_declared may be None)
_NUMERIC_FIELDS = CSV_COLUMNS[2:] + ("expected_loss_declared",)

# one row per sub-exposure: the obligor's index in SectoredPortfolio.obligor_ids, the amount
# in the sector, and the obligor's own mean loss rate
SUB_DTYPE = np.dtype([("obligor", np.int64), ("amount", np.float64), ("loss_rate", np.float64)])


@dataclass(frozen=True)
class ObligorRecord:
    """One insured entity.

    Exposure is in millions of currency units; rates are dimensionless
    fractions (0.0312, never 3.12). The declared expected loss, when
    present, is used only for consistency checks.
    """

    id: str
    name: str
    exposure: float
    mean_loss_rate: float
    loss_rate_stddev: float
    crop_ratio: float
    livestock_ratio: float
    expected_loss_declared: float | None = None

    def __post_init__(self):
        if not self.id:
            raise InputError("obligor id must be non-empty")
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"obligor {self.id}: {name} must be finite, got {value}")
        if not self.exposure > 0:
            raise InputError(f"obligor {self.id}: exposure must be > 0, got {self.exposure}")
        if not 0.0 <= self.mean_loss_rate <= 1.0:
            raise InputError(
                f"obligor {self.id}: mean_loss_rate must be in [0, 1], got {self.mean_loss_rate}"
            )
        if self.loss_rate_stddev < 0.0:
            raise InputError(
                f"obligor {self.id}: loss_rate_stddev must be >= 0, got {self.loss_rate_stddev}"
            )
        for name in ("crop_ratio", "livestock_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"obligor {self.id}: {name} must be in [0, 1], got {value}")

    @property
    def expected_loss(self) -> float:
        return self.exposure * self.mean_loss_rate


@dataclass(frozen=True)
class Portfolio:
    """Ordered, immutable collection of obligors with unique ids."""

    obligors: tuple[ObligorRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "obligors", tuple(self.obligors))
        if not self.obligors:
            raise InputError("empty portfolio")
        seen = set()
        for obligor in self.obligors:
            if obligor.id in seen:
                raise InputError(f"duplicate obligor id {obligor.id!r}")
            seen.add(obligor.id)

    def __len__(self) -> int:
        return len(self.obligors)

    def __iter__(self):
        return iter(self.obligors)

    @property
    def total_exposure(self) -> float:
        return sum(o.exposure for o in self.obligors)

    @property
    def total_expected_loss(self) -> float:
        return sum(o.expected_loss for o in self.obligors)


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
    """A named sector's rates and its sub-exposures: SUB_DTYPE rows, a slice of one table."""

    name: str
    mean_rate: float
    stddev_rate: float
    subs: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.subs, np.ndarray) and self.subs.ndim == 1 and self.subs.dtype == SUB_DTYPE):
            raise InputError(f"sector {self.name!r}: subs must be a 1-d array of {SUB_DTYPE} rows")
        if self.mean_rate == 0.0 and self.stddev_rate > 0.0:
            raise InputError(
                f"sector {self.name!r}: zero mean rate with positive volatility has no "
                "gamma parameterization"
            )
        if self.mean_rate < 0.0 or self.stddev_rate < 0.0:
            raise InputError(f"sector {self.name!r}: rates must be nonnegative")


@dataclass(frozen=True)
class SectoredPortfolio:
    """Portfolio view after sector assignment; input to exposure banding."""

    sectors: tuple[Sector, ...]
    obligor_ids: tuple[str, ...]


@dataclass(frozen=True)
class ValidationFinding:
    """A data-consistency observation; findings are data, not failures."""

    kind: str  # "expected_loss_mismatch" | "ratio_sum"
    severity: str  # "warning" | "error"
    obligor_id: str
    message: str


def _number(cell: str, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"malformed {column}: {cell!r}") from None


def parse_portfolio(csv_text: str) -> Portfolio:
    """Parse portfolio CSV text into a Portfolio.

    Header row is mandatory; columns are id,name,exposure,mean_loss_rate,
    loss_rate_stddev,crop_ratio,livestock_ratio[,expected_loss[,rating]].
    Rates must already be fractions; percent signs are not interpreted.
    """
    rows = [r for r in csv.reader(io.StringIO(csv_text)) if any(cell.strip() for cell in r)]
    if not rows:
        raise InputError("empty portfolio: no header row")
    header = tuple(h.strip() for h in rows[0])
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
        raise InputError(
            "bad header: expected columns "
            f"{','.join(CSV_COLUMNS)}[,expected_loss] but got {','.join(header)}"
        )
    extras = header[len(CSV_COLUMNS) :]
    for i, col in enumerate(extras):
        if col not in _OPTIONAL_COLUMNS:
            raise InputError(f"bad header: unknown column {col!r}")
        if col in extras[:i]:
            raise InputError(f"bad header: repeated column {col!r}")
    el_index = header.index("expected_loss") if "expected_loss" in extras else None

    obligors = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(
                f"row {line_no}: expected {len(header)} fields, got {len(row)}"
            )
        cells = [c.strip() for c in row]
        try:
            # the numeric columns, in ObligorRecord's field order
            numbers = [_number(cells[i], column) for i, column in enumerate(CSV_COLUMNS[2:], start=2)]
            declared = None
            if el_index is not None and cells[el_index]:
                declared = _number(cells[el_index], "expected_loss")
            obligors.append(ObligorRecord(cells[0], cells[1], *numbers, declared))
        except InputError as exc:
            raise InputError(f"row {line_no}: {exc}") from None
    if not obligors:
        raise InputError("empty portfolio: header only")
    return Portfolio(obligors=tuple(obligors))


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
    findings: list[ValidationFinding] = []
    for o in portfolio:
        if o.expected_loss_declared is not None:
            gap = abs(o.expected_loss - o.expected_loss_declared)
            if gap / max(o.expected_loss_declared, 1.0) > tol:
                findings.append(
                    ValidationFinding(
                        kind="expected_loss_mismatch",
                        severity="error",
                        obligor_id=o.id,
                        message=(
                            f"exposure * mean_loss_rate = {o.expected_loss:.6g} but "
                            f"declared expected loss is {o.expected_loss_declared:.6g}"
                        ),
                    )
                )
        ratio_sum = o.crop_ratio + o.livestock_ratio
        if not (1.0 - tol) <= ratio_sum <= (1.0 + tol):
            findings.append(
                ValidationFinding(
                    kind="ratio_sum",
                    severity="warning",
                    obligor_id=o.id,
                    message=(
                        f"crop_ratio + livestock_ratio = {ratio_sum:.6g}; "
                        "ratios are renormalized in crop-livestock mode"
                    ),
                )
            )
    return findings


def discount_exposures(portfolio: Portfolio, spec: DiscountSpec) -> Portfolio:
    """Scale every exposure to present value by exp(-rate * horizon)."""
    factor = spec.factor
    return replace(
        portfolio,
        obligors=tuple(replace(o, exposure=o.exposure * factor) for o in portfolio),
    )


def _split_ratios(ids: tuple[str, ...], crop: np.ndarray, livestock: np.ndarray) -> np.ndarray:
    # (2, obligors): crop and livestock shares, renormalized where their sum misses 1
    total = crop + livestock
    if not np.all(total > 0.0):
        oid = ids[int(np.argmin(total > 0.0))]
        raise InputError(f"obligor {oid}: crop and livestock ratios are both zero; cannot split")
    ratios = np.stack((crop, livestock))
    return np.where(np.abs(total - 1.0) > RATIO_RENORM_TOL, ratios / total, ratios)


def assign_sectors(portfolio: Portfolio, assignment: SectorAssignment) -> SectoredPortfolio:
    """Split each obligor's exposure across sectors per the assignment mode.

    single: one sector holding every full exposure; crop-livestock: two
    sectors fed by the (renormalized) ratio split, a sector without subs
    left out; per-obligor: one sector per obligor, with its own rates.
    Each sub-exposure keeps its obligor's own mean loss rate, and the other
    modes' sector rates are the subs' amount-weighted averages. All subs
    form one SUB_DTYPE table in sector order; each Sector.subs is its slice.
    """
    overrides = assignment.sector_rates or {}
    ids = tuple(o.id for o in portfolio)
    columns = [(o.exposure, o.mean_loss_rate, o.loss_rate_stddev, o.crop_ratio, o.livestock_ratio) for o in portfolio]
    exposure, mean, stddev, crop, livestock = np.array(columns).T
    if assignment.mode == "per-obligor":
        names, sector, obligor, amount = ids, np.arange(len(ids)), np.arange(len(ids)), exposure
        rates = zip(mean.tolist(), stddev.tolist())
    else:
        if assignment.mode == "single":
            names, shares = ("portfolio",), np.ones((1, len(ids)))
        else:
            names, shares = ("crop", "livestock"), _split_ratios(ids, crop, livestock)
        held = (shares > 0.0).any(axis=1)
        names, shares = tuple(name for name, h in zip(names, held) if h), shares[held]
        sector, obligor = np.nonzero(shares > 0.0)  # sector by sector, obligors in order
        amount = exposure[obligor] * shares[sector, obligor]
        weight = np.bincount(sector, amount)  # sums in table order
        averages = [(np.bincount(sector, amount * r[obligor]) / weight).tolist() for r in (mean, stddev)]
        rates = [overrides.get(name) or rate for name, rate in zip(names, zip(*averages))]
    table = np.empty(obligor.size, SUB_DTYPE)
    table["obligor"], table["amount"], table["loss_rate"] = obligor, amount, mean[obligor]
    ends = np.cumsum(np.bincount(sector, minlength=len(names))).tolist()
    sectors = tuple(Sector(name, m, sd, table[lo:hi])
                    for name, (m, sd), lo, hi in zip(names, rates, [0] + ends, ends))
    unknown = set(overrides) - set(names)
    if unknown:
        raise InputError(f"sector rate overrides for unknown sectors: {sorted(unknown)}")
    return SectoredPortfolio(sectors=sectors, obligor_ids=ids)

"""Moments, additive risk contributions and the report files from a loss distribution.

Each level's VaR is engine.exceedance_quantile, certified against the distribution's tail bound.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from types import SimpleNamespace

import numpy as np

from .engine import BandedPortfolio, LossDistribution, exceedance_quantile
from .errors import ModelError
from .portfolio import Portfolio, ValidationFinding

TRUNCATION_CAVEAT = 1e-9
_SLOT = "%s"  # a value json.dumps writes as '"%s"', where _json_list puts in a column's text


def _json_list(item: dict, n: int, depth: int, columns: list) -> str:
    """A list of n items, as json.dumps(sort_keys=True, indent=2) lays it out depth levels deep.

    json.dumps lays out the item; its _SLOT values, in sorted key order,
    are filled by columns: each an iterable of n JSON texts, or an array
    of n numbers, written as float.__repr__ writes them, as json does.
    """
    from . import _numtext  # here, not at the top: only a run that writes a report loads it

    if not n:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    pieces = json.dumps(item, sort_keys=True, indent=2).replace("\n", pad).split(json.dumps(_SLOT))
    parts = [pieces[0]]
    for column, piece in zip(columns, pieces[1:]):
        parts += [column, piece]
    parts[-1] += sep
    rows = _numtext.table(parts, n)
    rows[-1] = rows[-1].removesuffix(sep)
    return "".join(["[", pad, *rows, pad[:-2], "]"])


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    truncation_caveat: bool  # set when truncated or aliased tail mass may bias the figures


@dataclass(frozen=True)
class QuantileRow:
    exceedance_prob: float
    loss: float


@dataclass(frozen=True)
class ContributionRow:
    obligor_id: str
    name: str
    expected_loss: float
    contributions: tuple[float, ...]  # one entry per level, aligned with table levels


@dataclass(frozen=True, eq=False)
class ContributionTable:
    """Per-obligor allocation of the portfolio quantile at each exceedance level.

    Stored as columns and checked once when built: obligor_ids and names
    are tuples of str, expected_loss is a float64 array (obligors,) and
    contributions a float64 array (obligors, levels), every entry finite.
    Column sums reproduce the portfolio VaR exactly; the TOTAL row carries
    those sums alongside the total expected loss.
    """

    levels: tuple[float, ...]
    obligor_ids: tuple[str, ...]
    names: tuple[str, ...]
    expected_loss: np.ndarray
    contributions: np.ndarray
    total_expected_loss: float
    totals: tuple[float, ...]

    def __post_init__(self):
        for name in ("levels", "obligor_ids", "names", "totals"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "expected_loss", np.asarray(self.expected_loss, np.float64))
        object.__setattr__(self, "contributions", np.asarray(self.contributions, np.float64))
        n, k = len(self.obligor_ids), len(self.levels)
        if (len(self.names) != n or self.expected_loss.shape != (n,) or self.contributions.shape != (n, k)
                or len(self.totals) != k):
            raise ModelError("contribution table: ids, names, expected_loss and contributions need one entry per "
                             "obligor, contributions and totals one per level")
        bad = ~(np.isfinite(self.expected_loss) & np.isfinite(self.contributions).all(axis=1))
        if bad.any():
            oid = self.obligor_ids[int(np.argmax(bad))]
            raise ModelError(f"obligor {oid!r} has a contribution or expected loss that is not finite")
        if not all(map(math.isfinite, (self.total_expected_loss, *self.totals))):
            raise ModelError("contribution totals must be finite")

    @cached_property
    def rows(self) -> tuple[ContributionRow, ...]:
        """Each obligor's row, as objects built on demand from the columns: a view that perfbench reads."""
        return tuple(map(ContributionRow, self.obligor_ids, self.names, self.expected_loss.tolist(),
                         map(tuple, self.contributions.tolist())))


@dataclass(frozen=True)
class RiskReport:
    """Bundle of everything one pipeline run produces, JSON-serializable."""

    config: dict
    findings: tuple[ValidationFinding, ...]
    moments: Moments
    contributions: ContributionTable

    @property
    def quantiles(self) -> tuple[QuantileRow, ...]:
        """The portfolio quantile at each level: the contribution table's levels and totals."""
        return tuple(map(QuantileRow, self.contributions.levels, self.contributions.totals))

    def to_json(self) -> str:
        """The report as json.dumps(payload, sort_keys=True, indent=2) writes it, plus a newline.

        json's indent encoder runs in pure Python, so the findings and
        contributions.rows lists are written by _json_list, their text and
        numbers a chunk of rows at a time, and put in at their slots in the
        dumped head. The table holds only finite numbers;
        a head number that is not finite raises ModelError, since JSON has none.
        """
        table = self.contributions
        row = {"contributions": [_SLOT] * len(table.levels), "expected_loss": _SLOT, "id": _SLOT, "name": _SLOT}
        # columns in sorted key order: each level's contribution, expected loss, id, name
        rows = _json_list(row, len(table.obligor_ids), 2, [*table.contributions.T, table.expected_loss,
                                                           map(encode_basestring_ascii, table.obligor_ids),
                                                           map(encode_basestring_ascii, table.names)])
        keys = sorted(f.name for f in fields(ValidationFinding))
        findings = _json_list(dict.fromkeys(keys, _SLOT), len(self.findings), 1,
                              [map(encode_basestring_ascii, map(attrgetter(key), self.findings)) for key in keys])
        payload = {
            "config": self.config,
            "findings": _SLOT,
            "moments": {
                "mean": self.moments.mean,
                "variance": self.moments.variance,
                "truncation_caveat": self.moments.truncation_caveat,
            },
            "quantiles": [
                {"exceedance_prob": q.exceedance_prob, "loss": q.loss} for q in self.quantiles
            ],
            "contributions": {
                "levels": list(table.levels),
                "total_expected_loss": table.total_expected_loss,
                "totals": list(table.totals),
                "rows": _SLOT,
            },
        }
        try:
            head = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:  # JSON has no inf or NaN
            raise ModelError("report.json would hold a number that is not finite, such as a config value") from None
        # config, the one part of the head that holds outside text, sorts before both slots
        to_rows, to_findings, rest = head.rsplit(json.dumps(_SLOT), 2)
        return "".join((to_rows, rows, to_findings, findings, rest, "\n"))

    def quantiles_csv(self) -> str:
        """quantiles.csv, which analyze also prints: a level's repr and a %.6f loss never need csv's quoting."""
        return "".join(["exceedance_prob,loss\n", *(f"{q.exceedance_prob!r},{q.loss:.6f}\n" for q in self.quantiles)])

    def contributions_csv(self) -> str:
        from . import _numtext  # here, not at the top: only a run that writes a report loads it

        table = self.contributions
        # the header and the TOTAL row need no csv quoting
        header = ",".join(["id", "name", "expected_loss", *map(repr, table.levels)])
        total = ("TOTAL," + ",%.6f" * (1 + len(table.levels))) % (table.total_expected_loss, *table.totals)
        # csv quotes each row's id and name cells, a row at a time: writerow returns what write does, here
        # the line without its ending (a C slice, not a Python call per row). The numbers need no quoting.
        cells = csv.writer(SimpleNamespace(write=itemgetter(slice(None, -1))), lineterminator="\n")
        parts = [map(cells.writerow, zip(table.obligor_ids, table.names))]
        for column in (table.expected_loss, *table.contributions.T):
            parts += [",", column]
        rows = _numtext.table(parts + ["\n"], len(table.obligor_ids), _numtext.fixed6_fields)
        return "".join([header, "\n", *rows, total, "\n"])


def moments(dist: LossDistribution) -> Moments:
    """Mean and variance of the grid pmf, flagged when truncated or aliased mass could bias them."""
    n = np.arange(dist.pmf.size, dtype=float)
    # numpy's own loop, not a BLAS dot, whose rounding moves with the OpenBLAS thread count
    mean_units = float(np.einsum("i,i->", n, dist.pmf))
    second = float(np.einsum("i,i->", n * n, dist.pmf))
    variance = (second - mean_units**2) * (dist.unit * dist.unit)
    if not variance < math.inf:  # NaN too: a zero variance in units times an infinite unit * unit
        raise ModelError(f"pmf variance overflows at unit {dist.unit!r}; use a smaller unit (--unit)")
    return Moments(
        mean=mean_units * dist.unit,
        variance=variance,
        truncation_caveat=max(dist.truncation_mass, dist.tail_bound) > TRUNCATION_CAVEAT,
    )


def _variance_contributions(banded: BandedPortfolio) -> np.ndarray:
    # per obligor, in sub order: eps*v*unit^2 then cv_k^2 * (eps*unit) * (sector k's eps*unit), per sub;
    # a gamma sector is its own part, so its eps is the model's part total, summed over its levels' sums
    # (a plain per-sub sum rounds differently); an unmixed sub's cv_k^2 = 0 cancels part 0's pooled total
    unit, k, eps = banded.unit, banded.sub_sector, banded.sub_epsilon
    cv2, c = banded.cv**2, banded._cumulant
    part_eps = c.eps_total[c.sector_part[k]]
    # a product past the largest float is inf, and where unit * unit overflows a zero eps gives 0 * inf = NaN;
    # risk_contributions refuses either total
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.stack((eps * banded.sub_level * (unit * unit), cv2[k] * (eps * unit) * (part_eps * unit)))
    n = len(banded.obligor_ids)
    return np.bincount(np.repeat(banded.sub_obligor, 2), weights=terms.T.ravel(), minlength=n)


def risk_contributions(
    banded: BandedPortfolio,
    dist: LossDistribution,
    levels: list[float] | tuple[float, ...],
    names: tuple[str, ...] | None = None,
) -> ContributionTable:
    """Allocate each level's VaR to obligors: expected loss plus a variance share.

    contribution_i = EL_i + (VaR - EL_total) * VC_i / sum(VC), where VC_i is
    the obligor's analytic variance contribution. Columns therefore sum to
    the portfolio VaR at every level. A book with no variance is refused
    unless every VaR is EL_total (loss rates all 0): contribution_i is EL_i.
    names run aligned with banded.obligor_ids; they default to the ids.
    """
    levels = tuple(float(lvl) for lvl in levels)
    expected = np.bincount(banded.sub_obligor, weights=banded.sub_epsilon, minlength=len(banded.obligor_ids))
    expected *= banded.unit
    vc = _variance_contributions(banded)
    # both totals add left to right: the builtin sum is compensated since Python 3.12
    el_total = float(np.cumsum(expected)[-1])
    vc_total = float(np.cumsum(vc)[-1])
    if not vc_total < math.inf:  # NaN too: 0 * inf where unit * unit overflowed
        raise ModelError(
            f"total variance contribution overflows at unit {banded.unit!r}; use a smaller unit (--unit)"
        )

    vars_at = [exceedance_quantile(dist, lvl) for lvl in levels]
    unexpected = np.array(vars_at) - el_total
    if vc_total <= 0.0 and unexpected.any():
        raise ModelError("degenerate portfolio: total variance contribution is zero")
    shares = vc / vc_total if vc_total > 0.0 else vc  # no variance: every VC_i is 0
    return ContributionTable(
        levels=levels,
        obligor_ids=banded.obligor_ids,
        names=banded.obligor_ids if names is None else names,
        expected_loss=expected,
        contributions=expected[:, None] + unexpected[None, :] * shares[:, None],
        total_expected_loss=el_total,
        totals=tuple(vars_at),
    )


def build_report(
    portfolio: Portfolio,
    banded: BandedPortfolio,
    dist: LossDistribution,
    levels: list[float] | tuple[float, ...],
    config: dict | None = None,
    findings: list[ValidationFinding] | tuple[ValidationFinding, ...] = (),
) -> RiskReport:
    """Assemble quantiles, moments, and contributions into one serializable report.

    Raises ModelError unless banded was built from portfolio: its names are
    looked up by position.
    """
    if portfolio.ids != banded.obligor_ids:
        raise ModelError("build_report needs the portfolio that banded was built from: their obligor ids differ")
    merged_config = dict(config or {})
    merged_config.setdefault("unit", banded.unit)
    merged_config.setdefault("grid_size", int(dist.pmf.size))
    merged_config.setdefault("truncation_mass", float(dist.truncation_mass))
    merged_config.setdefault("tail_bound", float(dist.tail_bound))
    table = risk_contributions(banded, dist, levels, portfolio.names)
    return RiskReport(
        config=merged_config,
        findings=tuple(findings),
        moments=moments(dist),
        contributions=table,
    )

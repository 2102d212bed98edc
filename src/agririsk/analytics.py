"""Tail quantiles, moments, and additive risk contributions from a loss distribution."""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from .engine import BandedPortfolio, LossDistribution
from .errors import ModelError
from .portfolio import Portfolio, ValidationFinding

TRUNCATION_CAVEAT = 1e-9
_SLOT = "%s"  # a value json.dumps writes as '"%s"', which _json_list turns into a %-format slot


def _json_list(item: dict, n: int, depth: int, values: Iterable) -> str:
    """A list of n items, as json.dumps(sort_keys=True, indent=2) lays it out depth levels deep.

    json.dumps lays out the item, with each _SLOT value in it filled, in
    sorted key order, by the next of values: JSON text, or a number.
    """
    if not n:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    one = json.dumps(item, sort_keys=True, indent=2).replace("\n", pad).replace(json.dumps(_SLOT), "%s")
    return ("[" + pad + ("," + pad).join([one] * n) + pad[:-2] + "]") % tuple(values)


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

        json's indent encoder runs in pure Python, so the two per-obligor
        lists, contributions.rows and findings, are written from templates
        instead and put in at their slots in the dumped head. The table holds
        only finite numbers, which "%s" writes as float.__repr__, as json does.
        """
        table = self.contributions
        # slot values in sorted key order: each level's contribution, expected loss, id, name
        row_values = chain.from_iterable(zip(
            *table.contributions.T.tolist(), table.expected_loss.tolist(),
            map(encode_basestring_ascii, table.obligor_ids), map(encode_basestring_ascii, table.names)))
        row = {"contributions": [_SLOT] * len(table.levels), "expected_loss": _SLOT, "id": _SLOT, "name": _SLOT}
        rows = _json_list(row, len(table.obligor_ids), 2, row_values)
        keys = sorted(f.name for f in fields(ValidationFinding))
        finding_values = [encode_basestring_ascii(getattr(f, key)) for f in self.findings for key in keys]
        findings = _json_list(dict.fromkeys(keys, _SLOT), len(self.findings), 1, finding_values)
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
        # config, the one part of the head that holds outside text, sorts before both slots
        to_rows, to_findings, rest = json.dumps(payload, sort_keys=True, indent=2).rsplit(json.dumps(_SLOT), 2)
        return "".join((to_rows, rows, to_findings, findings, rest, "\n"))

    def quantiles_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["exceedance_prob", "loss"])
        for q in self.quantiles:
            writer.writerow([repr(q.exceedance_prob), f"{q.loss:.6f}"])
        return out.getvalue()

    def contributions_csv(self) -> str:
        table = self.contributions
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["id", "name", "expected_loss"] + [repr(lvl) for lvl in table.levels]
        )
        # csv quotes each row's id and name cells; its numbers need no quoting, so one format string writes
        # every row: its cells without their line ending, then its numbers
        cells: list[str] = []
        csv.writer(SimpleNamespace(write=cells.append), lineterminator="\n").writerows(
            zip(table.obligor_ids, table.names)
        )
        row = "%s" + ",%.6f" * (1 + len(table.levels)) + "\n"
        values = zip(
            map(str.removesuffix, cells, repeat("\n")), table.expected_loss.tolist(), *table.contributions.T.tolist()
        )
        out.write(row * len(cells) % tuple(chain.from_iterable(values)))
        writer.writerow(
            ["TOTAL", "", f"{table.total_expected_loss:.6f}"]
            + [f"{t:.6f}" for t in table.totals]
        )
        return out.getvalue()


def exceedance_quantile(dist: LossDistribution, eps: float) -> float:
    """Smallest grid point x with P(loss > x) <= eps, certified against the tail bound.

    The pmf's survival can fall short of the true one by tail_bound (the
    FFT's aliased mass), so x is returned only when both still fit in eps.
    """
    if not 0.0 < eps < 1.0:
        raise ModelError(f"exceedance probability must be in (0, 1), got {eps}")
    if dist.truncation_mass >= eps or dist.tail_bound >= eps:
        raise ModelError(
            f"grid too small for requested tail: truncation mass {dist.truncation_mass:.3e}, "
            f"tail bound {dist.tail_bound:.3e}, level {eps}"
        )
    tail = 1.0 - dist.cdf
    if tail[-1] > eps:  # tail is nonincreasing, so no grid point qualifies
        raise ModelError(
            f"exceedance probability {eps} is below the smallest the pmf resolves, {tail[-1]:.3e}"
        )
    x = int(np.argmax(tail <= eps))
    if tail[x] + dist.tail_bound > eps:
        raise ModelError(f"grid too small to certify: survival {tail[x]:.3e} at {x * dist.unit!r} "
                         f"plus tail bound {dist.tail_bound:.3e} exceeds level {eps}")
    return x * dist.unit


def moments(dist: LossDistribution) -> Moments:
    """Mean and variance of the grid pmf, flagged when truncated or aliased mass could bias them."""
    n = np.arange(dist.pmf.size, dtype=float)
    mean_units = float(np.dot(n, dist.pmf))
    second = float(np.dot(n * n, dist.pmf))
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
    # sector k's eps sums its bands' eps, each summed over its subs: a plain per-sub sum rounds differently
    unit, k, eps = banded.unit, banded.sub_sector, banded.sub_epsilon
    cv2 = banded.cv**2
    (band_sector, _), band_eps = banded._bands
    sector_eps = np.bincount(band_sector, weights=band_eps, minlength=len(banded.names))
    # where unit * unit overflows, a zero eps gives 0 * inf = NaN; risk_contributions refuses that total
    with np.errstate(invalid="ignore"):
        terms = np.stack((eps * banded.sub_level * (unit * unit), cv2[k] * (eps * unit) * (sector_eps[k] * unit)))
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
    the portfolio VaR at every level. names run aligned with
    banded.obligor_ids; they default to the ids.
    """
    levels = tuple(float(lvl) for lvl in levels)
    expected = np.bincount(banded.sub_obligor, weights=banded.sub_epsilon, minlength=len(banded.obligor_ids))
    expected *= banded.unit
    vc = _variance_contributions(banded)
    # both totals add left to right: the builtin sum is compensated since Python 3.12
    el_total = float(np.cumsum(expected)[-1])
    vc_total = float(np.cumsum(vc)[-1])
    if vc_total <= 0.0:
        raise ModelError("degenerate portfolio: total variance contribution is zero")
    if not vc_total < math.inf:  # NaN too: 0 * inf where unit * unit overflowed
        raise ModelError(
            f"total variance contribution overflows at unit {banded.unit!r}; use a smaller unit (--unit)"
        )

    vars_at = [exceedance_quantile(dist, lvl) for lvl in levels]
    unexpected = np.array(vars_at) - el_total
    return ContributionTable(
        levels=levels,
        obligor_ids=banded.obligor_ids,
        names=banded.obligor_ids if names is None else names,
        expected_loss=expected,
        contributions=expected[:, None] + unexpected[None, :] * (vc / vc_total)[:, None],
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

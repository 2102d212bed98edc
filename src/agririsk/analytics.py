"""Tail quantiles, moments, and additive risk contributions from a loss distribution."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from .engine import BandedPortfolio, LossDistribution
from .errors import ModelError
from .portfolio import Portfolio, ValidationFinding

TRUNCATION_CAVEAT = 1e-9
_SLOT = "%s"  # a value json.dumps writes as '"%s"', which _json_list turns into a %-format slot


def _json_list(item: dict, n: int, depth: int, values: list) -> str:
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


@dataclass(frozen=True)
class ContributionTable:
    """Per-obligor allocation of the portfolio quantile at each exceedance level.

    Column sums reproduce the portfolio VaR exactly; the TOTAL row carries
    those sums alongside the total expected loss.
    """

    levels: tuple[float, ...]
    rows: tuple[ContributionRow, ...]
    total_expected_loss: float
    totals: tuple[float, ...]


@dataclass(frozen=True)
class RiskReport:
    """Bundle of everything one pipeline run produces, JSON-serializable."""

    config: dict
    findings: tuple[ValidationFinding, ...]
    moments: Moments
    quantiles: tuple[QuantileRow, ...]
    contributions: ContributionTable

    def to_json(self) -> str:
        """The report as json.dumps(payload, sort_keys=True, indent=2) writes it, plus a newline.

        json's indent encoder runs in pure Python, so the two per-obligor
        lists, contributions.rows and findings, are written from templates
        instead and put in at their slots in the dumped head. Raises
        ModelError if a row holds a value that is not finite: json would
        write NaN or Infinity there, which the templates do not.
        """
        table = self.contributions
        # slot values in sorted key order; "%s" writes a float as float.__repr__, as json does
        row_values: list = []
        for r in table.rows:
            numbers = (*r.contributions, r.expected_loss)
            if not all(map(math.isfinite, numbers)):
                raise ModelError(f"obligor {r.obligor_id!r} has a contribution or expected loss that is not finite")
            row_values += numbers
            row_values += (encode_basestring_ascii(r.obligor_id), encode_basestring_ascii(r.name))
        row = {"contributions": [_SLOT] * len(table.levels), "expected_loss": _SLOT, "id": _SLOT, "name": _SLOT}
        rows = _json_list(row, len(table.rows), 2, row_values)
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["id", "name", "expected_loss"] + [repr(lvl) for lvl in self.contributions.levels]
        )
        # csv quotes each row's id and name cells; its numbers need no quoting, so one format string writes them
        cells: list[str] = []
        csv.writer(SimpleNamespace(write=cells.append), lineterminator="\n").writerows(
            (r.obligor_id, r.name) for r in self.contributions.rows
        )
        numbers = ",%.6f" * (1 + len(self.contributions.levels)) + "\n"
        out.writelines([
            line[:-1] + numbers % (r.expected_loss, *r.contributions)
            for line, r in zip(cells, self.contributions.rows)
        ])
        writer.writerow(
            ["TOTAL", "", f"{self.contributions.total_expected_loss:.6f}"]
            + [f"{t:.6f}" for t in self.contributions.totals]
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
    return Moments(
        mean=mean_units * dist.unit,
        variance=(second - mean_units**2) * dist.unit**2,
        truncation_caveat=max(dist.truncation_mass, dist.tail_bound) > TRUNCATION_CAVEAT,
    )


def _variance_contributions(banded: BandedPortfolio) -> np.ndarray:
    # per obligor, in sub order: eps*v*unit^2 then cv_k^2 * (eps*unit) * (sector k's eps*unit), per sub;
    # sector k's eps sums its bands' eps, each summed over its subs: a plain per-sub sum rounds differently
    unit, k, eps = banded.unit, banded.sub_sector, banded.sub_epsilon
    cv2 = banded.cv**2
    (band_sector, _), band_eps = banded._bands
    sector_eps = np.bincount(band_sector, weights=band_eps, minlength=len(banded.names))
    terms = np.stack((eps * banded.sub_level * unit**2, cv2[k] * (eps * unit) * (sector_eps[k] * unit)))
    n = len(banded.obligor_ids)
    return np.bincount(np.repeat(banded.sub_obligor, 2), weights=terms.T.ravel(), minlength=n)


def risk_contributions(
    banded: BandedPortfolio,
    dist: LossDistribution,
    levels: list[float] | tuple[float, ...],
    names: dict[str, str] | None = None,
) -> ContributionTable:
    """Allocate each level's VaR to obligors: expected loss plus a variance share.

    contribution_i = EL_i + (VaR - EL_total) * VC_i / sum(VC), where VC_i is
    the obligor's analytic variance contribution. Columns therefore sum to
    the portfolio VaR at every level.
    """
    levels = tuple(float(lvl) for lvl in levels)
    names = names or {}
    expected = np.bincount(banded.sub_obligor, weights=banded.sub_epsilon, minlength=len(banded.obligor_ids))
    expected *= banded.unit
    vc = _variance_contributions(banded)
    # both totals add left to right: the builtin sum is compensated since Python 3.12
    el_total = float(np.cumsum(expected)[-1])
    vc_total = float(np.cumsum(vc)[-1])
    if vc_total <= 0.0:
        raise ModelError("degenerate portfolio: total variance contribution is zero")

    vars_at = [exceedance_quantile(dist, lvl) for lvl in levels]
    unexpected = np.array(vars_at) - el_total
    contributions = expected[:, None] + unexpected[None, :] * (vc / vc_total)[:, None]
    rows = tuple(
        ContributionRow(obligor_id=oid, name=names.get(oid, oid), expected_loss=el, contributions=tuple(c))
        for oid, el, c in zip(banded.obligor_ids, expected.tolist(), contributions.tolist())
    )
    return ContributionTable(
        levels=levels,
        rows=rows,
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
    """Assemble quantiles, moments, and contributions into one serializable report."""
    names = dict(zip(portfolio.ids, portfolio.names))
    merged_config = dict(config or {})
    merged_config.setdefault("unit", banded.unit)
    merged_config.setdefault("grid_size", int(dist.pmf.size))
    merged_config.setdefault("truncation_mass", float(dist.truncation_mass))
    merged_config.setdefault("tail_bound", float(dist.tail_bound))
    table = risk_contributions(banded, dist, levels, names)
    return RiskReport(
        config=merged_config,
        findings=tuple(findings),
        moments=moments(dist),
        quantiles=tuple(QuantileRow(lvl, var) for lvl, var in zip(table.levels, table.totals)),
        contributions=table,
    )

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import re
import tracemalloc
import types
from dataclasses import replace
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

import agririsk as ar
from agririsk.errors import ModelError

from conftest import make_banded, single_sector
from test_engine import poisson_sector


def oracle_json(report: ar.RiskReport) -> str:
    """report.json as json.dumps wrote it before the per-obligor lists were written directly."""
    payload = {
        "config": report.config,
        "findings": [dict(vars(f)) for f in report.findings],
        "moments": {
            "mean": report.moments.mean,
            "variance": report.moments.variance,
            "truncation_caveat": report.moments.truncation_caveat,
        },
        "quantiles": [{"exceedance_prob": q.exceedance_prob, "loss": q.loss} for q in report.quantiles],
        "contributions": {
            "levels": list(report.contributions.levels),
            "total_expected_loss": report.contributions.total_expected_loss,
            "totals": list(report.contributions.totals),
            "rows": [
                {
                    "id": r.obligor_id,
                    "name": r.name,
                    "expected_loss": r.expected_loss,
                    "contributions": list(r.contributions),
                }
                for r in report.contributions.rows
            ],
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def oracle_contributions_csv(report: ar.RiskReport) -> str:
    """contributions.csv as csv wrote it cell by cell before the numbers shared one format string."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    table = report.contributions
    writer.writerow(["id", "name", "expected_loss"] + [repr(lvl) for lvl in table.levels])
    for r in table.rows:
        writer.writerow([r.obligor_id, r.name, f"{r.expected_loss:.6f}"] + [f"{c:.6f}" for c in r.contributions])
    writer.writerow(["TOTAL", "", f"{table.total_expected_loss:.6f}"] + [f"{t:.6f}" for t in table.totals])
    return out.getvalue()


def oracle_quantiles_csv(report: ar.RiskReport) -> str:
    """quantiles.csv as csv wrote it cell by cell before the lines were joined."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["exceedance_prob", "loss"])
    writer.writerows([repr(q.exceedance_prob), f"{q.loss:.6f}"] for q in report.quantiles)
    return out.getvalue()


_SLOT = "%s"


def _template_list(item: dict, n: int, depth: int, values) -> str:
    pad = "\n" + "  " * (depth + 1)
    if not n:
        return "[]"
    one = json.dumps(item, sort_keys=True, indent=2).replace("\n", pad).replace(json.dumps(_SLOT), "%s")
    return ("[" + pad + ("," + pad).join([one] * n) + pad[:-2] + "]") % tuple(values)


def template_json(report: ar.RiskReport) -> str:
    """report.json as one %-template per list wrote it, before the numbers were written a chunk at a time."""
    table = report.contributions
    row_values = itertools.chain.from_iterable(zip(
        *table.contributions.T.tolist(), table.expected_loss.tolist(),
        map(encode_basestring_ascii, table.obligor_ids), map(encode_basestring_ascii, table.names)))
    row = {"contributions": [_SLOT] * len(table.levels), "expected_loss": _SLOT, "id": _SLOT, "name": _SLOT}
    rows = _template_list(row, len(table.obligor_ids), 2, row_values)
    keys = sorted(f.name for f in dataclasses.fields(ar.ValidationFinding))
    finding_values = [encode_basestring_ascii(getattr(f, key)) for f in report.findings for key in keys]
    findings = _template_list(dict.fromkeys(keys, _SLOT), len(report.findings), 1, finding_values)
    payload = {
        "config": report.config,
        "findings": _SLOT,
        "moments": {"mean": report.moments.mean, "variance": report.moments.variance,
                    "truncation_caveat": report.moments.truncation_caveat},
        "quantiles": [{"exceedance_prob": q.exceedance_prob, "loss": q.loss} for q in report.quantiles],
        "contributions": {"levels": list(table.levels), "total_expected_loss": table.total_expected_loss,
                          "totals": list(table.totals), "rows": _SLOT},
    }
    head = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    to_rows, to_findings, rest = head.rsplit(json.dumps(_SLOT), 2)
    return "".join((to_rows, rows, to_findings, findings, rest, "\n"))


def template_contributions_csv(report: ar.RiskReport) -> str:
    """contributions.csv as one %-template wrote every row, before the numbers were written a chunk at a time."""
    table = report.contributions
    cells: list[str] = []
    csv.writer(types.SimpleNamespace(write=cells.append), lineterminator="\n").writerows(
        zip(table.obligor_ids, table.names))
    row = "%s" + ",%.6f" * (1 + len(table.levels)) + "\n"
    values = zip(map(str.removesuffix, cells, itertools.repeat("\n")), table.expected_loss.tolist(),
                 *table.contributions.T.tolist())
    header = ",".join(["id", "name", "expected_loss", *map(repr, table.levels)])
    return "".join((header, "\n", row * len(cells) % tuple(itertools.chain.from_iterable(values)),
                    row % ("TOTAL,", table.total_expected_loss, *table.totals)))


AWKWARD_TEXT = ["Ålborg Agrár", 'say "hi"', "back\\slash", "two\nlines", "ctl\x01", "a,b", "農協", "%s", '"%s"']


def synthetic_book(n: int, seed: int) -> ar.Portfolio:
    """n seeded obligors, ids and names among AWKWARD_TEXT, about one in ten ratio pairs off their sum."""
    rng = np.random.default_rng(seed)
    crop = rng.random(n)
    off = np.where(rng.random(n) < 0.1, 0.2, 0.0)
    exposure, rate, cv = 4.3 * rng.lognormal(0.0, 1.0, n), rng.uniform(0.005, 0.08, n), rng.uniform(0.2, 1.5, n)
    return ar.Portfolio(
        ids=tuple(f"{AWKWARD_TEXT[i % len(AWKWARD_TEXT)]}-{i}" for i in range(n)),
        names=tuple(f"{AWKWARD_TEXT[(i * 7) % len(AWKWARD_TEXT)]} {i}" for i in range(n)),
        exposure=exposure, mean_loss_rate=rate, loss_rate_stddev=rate * cv,
        crop_ratio=crop, livestock_ratio=(1.0 - crop) * (1.0 - off), expected_loss_declared=np.full(n, np.nan),
    )


def book_report(portfolio: ar.Portfolio, levels, config=None) -> ar.RiskReport:
    banded = ar.band_exposures(ar.assign_sectors(portfolio, ar.SectorAssignment("crop-livestock")), 1.0)
    dist = ar.loss_dist_fft(banded, ar.auto_grid_size(banded))
    return ar.build_report(portfolio, banded, dist, levels, config, ar.validate_portfolio(portfolio))


def point_mass(n: int, size: int = 16, unit: float = 1.0) -> ar.LossDistribution:
    pmf = np.zeros(size)
    pmf[n] = 1.0
    return ar.LossDistribution(unit=unit, pmf=pmf)


def poisson_tail(lam: float, n: int) -> float:
    return 1.0 - sum(math.exp(-lam) * lam**k / math.factorial(k) for k in range(n + 1))


class TestExceedanceQuantile:
    def test_point_mass(self):
        assert ar.exceedance_quantile(point_mass(5), 0.01) == 5.0

    def test_poisson_two(self):
        dist = ar.loss_dist_poisson(poisson_sector([(1, 2.0)]), 64)
        # direct tail sums: P(X > 5) = 0.0166 <= 0.05 < P(X > 4) = 0.0527
        assert poisson_tail(2.0, 5) <= 0.05 < poisson_tail(2.0, 4)
        assert ar.exceedance_quantile(dist, 0.05) == 5.0

    def test_truncation_blocks_deep_tails(self):
        pmf = np.array([0.5, 0.4])  # 0.1 of mass beyond the grid
        dist = ar.LossDistribution(unit=1.0, pmf=pmf)
        with pytest.raises(ModelError, match="grid too small"):
            ar.exceedance_quantile(dist, 0.05)

    def test_tail_bound_blocks_levels_at_or_below_it(self):
        pmf = np.array([0.5, 0.5])
        dist = ar.LossDistribution(unit=1.0, pmf=pmf, tail_bound=0.05)
        assert ar.exceedance_quantile(dist, 0.1) == 1.0
        with pytest.raises(ModelError, match="tail bound 5.000e-02, level 0.05"):
            ar.exceedance_quantile(dist, 0.05)

    def test_survival_plus_tail_bound_must_reach_the_level(self):
        # survival 0.125 at x = 1: certified at 0.25 (0.125 + 0.0625 <= 0.25), refused at 0.15
        pmf = np.array([0.5, 0.375, 0.125])
        dist = ar.LossDistribution(unit=2.0, pmf=pmf, tail_bound=0.0625)
        assert ar.exceedance_quantile(dist, 0.25) == 2.0
        with pytest.raises(ModelError, match="plus tail bound 6.250e-02 exceeds level 0.15"):
            ar.exceedance_quantile(dist, 0.15)
        assert ar.exceedance_quantile(replace(dist, tail_bound=0.0), 0.15) == 2.0

    def test_fft_quantiles_refused_where_aliasing_could_move_them(self, bundled_banded):
        # crop-livestock at unit 1: tail bound 5.9e-5 at 32768 points; 0.1 keeps its auto-grid value
        dist = ar.loss_dist_fft(bundled_banded, 32768)
        assert ar.exceedance_quantile(dist, 0.1) == 5489.0
        for level in (0.05, 0.01):
            with pytest.raises(ModelError, match="certify"):
                ar.exceedance_quantile(dist, level)

    def test_level_outside_unit_interval_rejected(self):
        with pytest.raises(ModelError):
            ar.exceedance_quantile(point_mass(1), 0.0)

    def test_level_below_pmf_resolution_rejected(self, bundled_banded):
        # tail bound 1.1e-16 at 100000 points, so the level passes it, yet no grid point has
        # P(loss > x) <= 1e-15 (round-off leaves 8e-14); the answer is not 0
        dist = ar.loss_dist_fft(bundled_banded, 100_000)
        assert dist.tail_bound < 1e-15
        with pytest.raises(ModelError, match="smallest the pmf resolves"):
            ar.exceedance_quantile(dist, 1e-15)

    def test_nonincreasing_in_eps(self, bundled_dist):
        levels = [0.2, 0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001]
        quantiles = [ar.exceedance_quantile(bundled_dist, lvl) for lvl in levels]
        assert quantiles == sorted(quantiles)


class TestMoments:
    def test_point_mass(self):
        mom = ar.moments(point_mass(7, unit=2.5))
        assert mom.mean == 17.5
        assert mom.variance == 0.0
        assert not mom.truncation_caveat

    def test_poisson_identities(self):
        dist = ar.loss_dist_poisson(poisson_sector([(1, 3.0)]), 128)
        mom = ar.moments(dist)
        assert mom.mean == pytest.approx(3.0, abs=1e-9)
        assert mom.variance == pytest.approx(3.0, abs=1e-9)

    def test_truncation_caveat_flag(self):
        pmf = np.array([0.5, 0.4])
        dist = ar.LossDistribution(unit=1.0, pmf=pmf)
        assert ar.moments(dist).truncation_caveat

    def test_truncation_caveat_counts_the_tail_bound(self, bundled_banded, bundled_dist):
        # at 32768 points the FFT pmf mean is 4.5e-5 relative off the analytic mean
        small = ar.loss_dist_fft(bundled_banded, 32768)
        assert abs(small.truncation_mass) <= ar.analytics.TRUNCATION_CAVEAT < small.tail_bound
        assert ar.moments(small).truncation_caveat
        assert not ar.moments(bundled_dist).truncation_caveat

    def test_bundled_mean_reproduces_table_total(self, bundled_dist):
        assert ar.moments(bundled_dist).mean == pytest.approx(1525.03, abs=0.5)


class TestRiskContributions:
    def test_single_obligor_takes_all(self):
        bands = [(4, 1.2)]
        banded = make_banded([("s", 0.7, bands)])
        dist = ar.loss_dist_sector(banded, 256)
        table = ar.risk_contributions(banded, dist, [0.1, 0.01])
        for column, total in enumerate(table.totals):
            assert table.rows[0].contributions[column] == pytest.approx(total, rel=1e-12)
            assert total == ar.exceedance_quantile(dist, table.levels[column])

    def test_identical_obligors_split_evenly(self, bundled_portfolio):
        _, banded = single_sector("A,A,120,0.05,0.03,0.5,0.5\nB,B,120,0.05,0.03,0.5,0.5\n")
        dist = ar.loss_dist_fft(banded, ar.auto_grid_size(banded))
        table = ar.risk_contributions(banded, dist, [0.05])
        var_q = table.totals[0]
        for row in table.rows:
            assert row.contributions[0] == pytest.approx(var_q / 2, rel=1e-12)

    def test_columns_sum_to_var(self, bundled_banded, bundled_dist):
        levels = [0.1, 0.05, 0.01]
        table = ar.risk_contributions(bundled_banded, bundled_dist, levels)
        for column, level in enumerate(levels):
            column_sum = sum(r.contributions[column] for r in table.rows)
            assert column_sum == pytest.approx(table.totals[column], rel=1e-9)
            assert table.totals[column] == ar.exceedance_quantile(bundled_dist, level)
        assert table.total_expected_loss == pytest.approx(
            bundled_banded.expected_loss, rel=1e-9
        )

    def test_contribution_at_least_expected_loss(self, bundled_banded, bundled_dist):
        table = ar.risk_contributions(bundled_banded, bundled_dist, [0.1, 0.001])
        for column, total in enumerate(table.totals):
            assert total >= table.total_expected_loss
            for row in table.rows:
                assert row.contributions[column] >= row.expected_loss

    def test_largest_variance_share_gets_largest_unexpected_loss(
        self, bundled_banded, bundled_dist
    ):
        table = ar.risk_contributions(bundled_banded, bundled_dist, [0.01])
        unexpected = {
            r.obligor_id: r.contributions[0] - r.expected_loss for r in table.rows
        }
        vc = ar.analytics._variance_contributions(bundled_banded)
        assert max(unexpected, key=unexpected.get) == bundled_banded.obligor_ids[int(np.argmax(vc))]

    def test_scaling_congruence(self, bundled_portfolio):
        levels = [0.1, 0.01]
        scale = 2.0
        tables = []
        for factor in (1.0, scale):
            p = replace(bundled_portfolio, exposure=bundled_portfolio.exposure * factor)
            sectored = ar.assign_sectors(p, ar.SectorAssignment("crop-livestock"))
            banded = ar.band_exposures(sectored, factor)
            dist = ar.loss_dist_fft(banded, ar.auto_grid_size(banded))
            tables.append(ar.risk_contributions(banded, dist, levels))
        base, scaled = tables
        for column in range(len(levels)):
            assert scaled.totals[column] == scale * base.totals[column]
            for row_base, row_scaled in zip(base.rows, scaled.rows):
                assert row_scaled.contributions[column] == pytest.approx(
                    scale * row_base.contributions[column], rel=1e-12
                )

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_expected_loss_per_obligor(self, bundled_portfolio, mode):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode))
        banded = ar.band_exposures(sectored, 10.0)
        table = ar.risk_contributions(banded, ar.loss_dist_fft(banded, ar.auto_grid_size(banded)), [0.1])
        assert [r.obligor_id for r in table.rows] == list(bundled_portfolio.ids)
        expected = bundled_portfolio.exposure * bundled_portfolio.mean_loss_rate
        for row, el in zip(table.rows, expected.tolist()):
            assert row.expected_loss == pytest.approx(el, rel=1e-12)

    def test_zero_variance_at_its_expected_loss_contributes_it(self):
        # a book whose loss rates are all 0: every VaR is the expected loss, 0, and so is every contribution
        banded = make_banded([("s", 0.0, [(1, 0.0), (3, 0.0)])])
        table = ar.risk_contributions(banded, point_mass(0), [0.1, 0.001])
        assert table.totals == (0.0, 0.0) and table.total_expected_loss == 0.0
        assert table.expected_loss.tolist() == [0.0, 0.0]
        assert table.contributions.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_zero_variance_past_its_expected_loss_rejected(self):
        banded = make_banded([("s", 0.0, [(1, 0.0)])])
        with pytest.raises(ModelError, match="^degenerate portfolio: total variance contribution is zero$"):
            ar.risk_contributions(banded, point_mass(1), [0.1])

    def test_totals_add_left_to_right(self, bundled_run):
        # Python 3.12's builtin sum is compensated: it gave ...6131 for the expected-loss total here
        table = ar.risk_contributions(bundled_run.banded, bundled_run.dist, [0.1, 0.05, 0.01])
        expected = np.array([r.expected_loss for r in table.rows])
        el_total = functools.reduce(operator.add, expected.tolist())
        assert table.total_expected_loss == el_total == 1524.9400000566127
        vc = ar.analytics._variance_contributions(bundled_run.banded)
        shares = vc / functools.reduce(operator.add, vc.tolist())
        contributions = expected[:, None] + (np.array(table.totals) - el_total)[None, :] * shares[:, None]
        assert [r.contributions for r in table.rows] == list(map(tuple, contributions.tolist()))


@pytest.fixture(scope="module")
def doubled_book(tmp_path_factory) -> str:
    """The bundled data with each exposure and declared expected_loss times 2, exact in binary."""
    rows = list(csv.reader(io.StringIO(ar.bundled_dataset_path().read_text(encoding="utf-8"))))
    columns = [rows[0].index("exposure"), rows[0].index("expected_loss")]
    for row in rows[1:]:
        for j in columns:
            row[j] = repr(2.0 * float(row[j]))
    path = tmp_path_factory.mktemp("scale") / "doubled.csv"
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return str(path)


# both backends share parsing, sectors, banding, _Cumulant and the contributions, so the cross-backend
# check cannot see a fault there; a scale relation between two runs can
@pytest.mark.parametrize("backend, mode, unit", [
    *(("fft", mode, unit) for mode in ar.portfolio.SECTOR_MODES for unit in (1.0, 10.0)),
    *(("panjer", mode, 10.0) for mode in ar.portfolio.SECTOR_MODES),
    ("panjer", "crop-livestock", 1.0),
])
def test_doubled_book_at_doubled_unit_doubles_every_amount(doubled_book, backend, mode, unit):
    # every amount and the unit times 2 leave each band's level and epsilon as they were, so the pmf in
    # units is the same bits and each money figure is exactly twice
    base, twice = (ar.run_pipeline(input=book, unit=u, sector_mode=mode, backend=backend)
                   for book, u in ((None, unit), (doubled_book, 2.0 * unit)))
    np.testing.assert_array_equal(twice.dist.pmf, base.dist.pmf)
    tables = [ar.risk_contributions(run.banded, run.dist, run.levels) for run in (base, twice)]
    assert tables[1].totals == tuple(2.0 * q for q in tables[0].totals)
    assert tables[1].total_expected_loss == 2.0 * tables[0].total_expected_loss
    np.testing.assert_array_equal(tables[1].expected_loss, 2.0 * tables[0].expected_loss)
    np.testing.assert_array_equal(tables[1].contributions, 2.0 * tables[0].contributions)


# two unmixed sectors around a gamma sector whose every level carries no loss, then a gamma sector
# with a zero-loss level and a repeated one: part 0 pools "u1" and "u2", and "g" is part 2
PARTED_BOOK = [("u1", 0.0, [(1, 0.3), (4, 0.5), (4, 0.2)]), ("zero", 0.9, [(2, 0.0), (6, 0.0)]),
               ("u2", 0.0, [(2, 0.7), (9, 0.1)]), ("g", 0.8, [(3, 0.0), (5, 0.25), (5, 0.4), (7, 0.15)])]


def per_band_variance_contributions(banded: ar.BandedPortfolio) -> np.ndarray:
    """Reference variance contributions: each sector's eps is its bands' eps from the sectors view, summed left to right."""
    unit, k, eps = banded.unit, banded.sub_sector, banded.sub_epsilon
    sector_eps = np.array([sum(b.epsilon for b in s.bands) for s in banded.sectors], float)
    terms = np.stack((eps * banded.sub_level * (unit * unit), banded.cv[k] ** 2 * (eps * unit) * (sector_eps[k] * unit)))
    n = len(banded.obligor_ids)
    return np.bincount(np.repeat(banded.sub_obligor, 2), weights=terms.T.ravel(), minlength=n)


class TestVarianceContributions:
    @pytest.mark.parametrize("unit", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_bundled_match_the_per_band_formula(self, bundled_portfolio, mode, unit):
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), unit)
        assert ar.analytics._variance_contributions(banded).tobytes() == per_band_variance_contributions(banded).tobytes()

    @pytest.mark.parametrize("mode", ["crop-livestock", "single"])
    def test_book_matches_the_per_band_formula(self, mode):
        banded = ar.band_exposures(ar.assign_sectors(synthetic_book(2000, 7), ar.SectorAssignment(mode)), 1.0)
        assert ar.analytics._variance_contributions(banded).tobytes() == per_band_variance_contributions(banded).tobytes()

    def test_hand_built_book_matches_the_per_band_formula(self):
        banded = make_banded(PARTED_BOOK, unit=0.5)
        assert banded._cumulant.sector_part.tolist() == [0, 1, 0, 2]
        vc = ar.analytics._variance_contributions(banded)
        assert vc.tobytes() == per_band_variance_contributions(banded).tobytes()

    @pytest.mark.parametrize("mode", [*ar.portfolio.SECTOR_MODES, "hand-built"])
    def test_sum_to_the_analytic_variance(self, bundled_portfolio, mode):
        if mode == "hand-built":
            banded = make_banded(PARTED_BOOK, unit=0.5)
        else:
            banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), 1.0)
        _, variance = ar.analytic_moments(banded)
        assert math.fsum(ar.analytics._variance_contributions(banded)) == pytest.approx(variance, rel=1e-12, abs=0.0)


class TestBuildReport:
    def build(self, bundled_portfolio, bundled_banded, bundled_dist, levels):
        findings = ar.validate_portfolio(bundled_portfolio)
        config = {"backend": "fft", "sector_mode": "crop-livestock", "levels": list(levels)}
        return ar.build_report(
            bundled_portfolio, bundled_banded, bundled_dist, levels, config, findings
        )

    def test_config_records_grid_and_its_bounds(self, bundled_portfolio, bundled_banded, bundled_dist):
        config = self.build(bundled_portfolio, bundled_banded, bundled_dist, [0.1]).config
        assert config["grid_size"] == bundled_dist.pmf.size
        assert config["truncation_mass"] == bundled_dist.truncation_mass
        assert config["tail_bound"] == bundled_dist.tail_bound
        assert 0.0 < config["tail_bound"] <= ar.engine.TAIL_EPS

    def test_empty_levels(self, bundled_portfolio, bundled_banded, bundled_dist):
        report = self.build(bundled_portfolio, bundled_banded, bundled_dist, [])
        assert report.quantiles == ()
        assert report.moments.mean > 0

    def test_seven_quantile_rows(self, bundled_portfolio, bundled_banded, bundled_dist):
        levels = [0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001]
        report = self.build(bundled_portfolio, bundled_banded, bundled_dist, levels)
        assert len(report.quantiles) == 7
        assert [q.exceedance_prob for q in report.quantiles] == levels

    def test_json_round_trip_equality(self, bundled_portfolio, bundled_banded, bundled_dist):
        report = self.build(bundled_portfolio, bundled_banded, bundled_dist, [0.1, 0.01])
        payload = json.loads(report.to_json())
        assert payload["config"] == report.config
        assert payload["moments"]["mean"] == report.moments.mean
        assert [q["loss"] for q in payload["quantiles"]] == [q.loss for q in report.quantiles]
        table = report.contributions
        assert payload["contributions"]["totals"] == list(table.totals)
        row = payload["contributions"]["rows"][0]
        assert row["id"] == table.rows[0].obligor_id
        assert row["contributions"] == list(table.rows[0].contributions)

    def test_csv_mirrors(self, bundled_portfolio, bundled_banded, bundled_dist):
        report = self.build(bundled_portfolio, bundled_banded, bundled_dist, [0.1, 0.05, 0.01])
        q_lines = report.quantiles_csv().strip().splitlines()
        assert q_lines[0] == "exceedance_prob,loss"
        assert len(q_lines) == 4
        c_lines = report.contributions_csv().strip().splitlines()
        assert c_lines[0].split(",")[:3] == ["id", "name", "expected_loss"]
        assert len(c_lines) == 1 + 22 + 1
        assert c_lines[-1].startswith("TOTAL")
        total_cells = c_lines[-1].split(",")
        for column in range(3):
            column_sum = sum(float(line.split(",")[3 + column]) for line in c_lines[1:-1])
            assert column_sum == pytest.approx(float(total_cells[3 + column]), abs=2e-5)

    def test_row_and_quantile_views_match_the_columns(self, bundled_run):
        run = bundled_run
        report = ar.build_report(run.portfolio, run.banded, run.dist, run.levels, run.config, run.findings)
        table = report.contributions
        assert table.names == run.portfolio.names
        assert len(table.rows) == len(table.obligor_ids) == 22
        for i, row in enumerate(table.rows):
            assert row == ar.ContributionRow(table.obligor_ids[i], table.names[i], float(table.expected_loss[i]),
                                             tuple(float(c) for c in table.contributions[i]))
        assert [(q.exceedance_prob, q.loss) for q in report.quantiles] == list(zip(table.levels, table.totals))

    def test_mismatched_portfolio_refused(self, bundled_run):
        # the names used to come from an {id: name} dict that fell back to the id
        run = bundled_run
        with pytest.raises(ModelError, match="obligor ids differ"):
            ar.build_report(synthetic_book(22, seed=1), run.banded, run.dist, [0.1])

    def test_quantile_grid_alignment(self, bundled_dist):
        # quantiles snap to grid points: loss is an integer multiple of the unit
        q = ar.exceedance_quantile(bundled_dist, 0.05)
        assert q / bundled_dist.unit == int(q / bundled_dist.unit)


class TestReportFiles:
    """report.json and the two csv files byte for byte against the encoders they were written with before."""

    def assert_matches_oracles(self, report):
        assert report.to_json() == oracle_json(report)
        assert report.contributions_csv() == oracle_contributions_csv(report)
        assert report.quantiles_csv() == oracle_quantiles_csv(report)

    def test_bundled_report_at_seven_levels(self, bundled_run):
        run = bundled_run
        report = ar.build_report(run.portfolio, run.banded, run.dist, run.levels, run.config, run.findings)
        assert len(report.contributions.levels) == 7 and len(report.findings) == 3
        self.assert_matches_oracles(report)

    def test_empty_levels(self, bundled_run):
        # each row's contributions is an empty list, written "[]" as json writes it
        run = bundled_run
        report = ar.build_report(run.portfolio, run.banded, run.dist, [], run.config, run.findings)
        assert '"contributions": []' in report.to_json()
        self.assert_matches_oracles(report)

    def test_no_findings(self, bundled_run):
        run = bundled_run
        report = ar.build_report(run.portfolio, run.banded, run.dist, [0.1], run.config, ())
        assert '"findings": []' in report.to_json()
        self.assert_matches_oracles(report)

    def test_awkward_text_in_ids_names_findings_and_config(self):
        config = {"input": '"%s"', "note": "%s", "sector_rates": {"%s": [0.1, 0.2]}}
        report = book_report(synthetic_book(60, seed=3), [0.1, 0.01], config)
        assert report.findings and all(text in report.to_json() for text in ('\\"hi\\"', "\\u00c5", "\\u0001"))
        assert '"two\nlines' in report.contributions_csv()
        self.assert_matches_oracles(report)

    def test_seeded_book(self):
        report = book_report(synthetic_book(2000, seed=11), [0.1, 0.05, 0.01, 0.001])
        assert len(report.findings) > 100
        self.assert_matches_oracles(report)

    @pytest.mark.parametrize("n", [9, 249, 250, 4097, 8193])
    def test_hostile_names_match_the_template_writer(self, n):
        # a NUL, a comma, a doubled quote, line breaks and non-ASCII text in ids and names; numbers of every
        # sign and size, past 2**33 too; 4 numbers a row, so 4097 and 8193 rows cross 4 and 8 chunk edges
        hostile = ["a\x00b", "c,d", 'say ""hi""', "two\nlines", "cr\rlf", "Ålborg 農協", "", "\x00", "%s"]
        rng = np.random.default_rng(n)
        values = rng.choice([-1.0, 1.0], (n, 4)) * np.exp(rng.uniform(-30.0, 30.0, (n, 4)))
        values[rng.random((n, 4)) < 0.05] = -0.0
        table = ar.ContributionTable(
            levels=(0.1, 0.05, 0.001), obligor_ids=tuple(f"{hostile[i % 9]}{i}" for i in range(n)),
            names=tuple(hostile[(i * 4) % 9] for i in range(n)), expected_loss=values[:, 0],
            contributions=values[:, 1:], total_expected_loss=float(values[:, 0].sum()),
            totals=tuple(values[:, 1:].sum(axis=0).tolist()))
        report = ar.RiskReport(config={"input": "a\x00b.csv", "unit": 1.0}, findings=(),
                               moments=ar.Moments(1.5, 2.25, False), contributions=table)
        assert report.to_json() == template_json(report)
        assert report.contributions_csv() == template_contributions_csv(report)
        assert '"id": "a\\u0000b0",' in report.to_json() and "\na\x00b0,a\x00b," in report.contributions_csv()

    @pytest.mark.parametrize("last", ["Book 19999", "Book, 19999", 'Book "19999"', "Book\n19999", "Book\r19999",
                                      "Book\x0019999"])
    def test_cells_that_need_no_quoting(self, last):
        # 20,000 ids and names csv writes as they are, or all but a last name holding a character csv may quote
        n = 20_000
        values = np.random.default_rng(21).uniform(-1e6, 1e6, (n, 3))
        table = ar.ContributionTable(
            levels=(0.1, 0.01), obligor_ids=tuple(f"B{i:06d}" for i in range(n)),
            names=tuple(f"Book {i}" for i in range(n - 1)) + (last,), expected_loss=values[:, 0],
            contributions=values[:, 1:], total_expected_loss=float(values[:, 0].sum()),
            totals=tuple(values[:, 1:].sum(axis=0).tolist()))
        report = ar.RiskReport(config={"unit": 1.0}, findings=(), moments=ar.Moments(1.5, 2.25, False),
                               contributions=table)
        assert report.contributions_csv() == oracle_contributions_csv(report)

    def test_reports_match_the_template_writer(self, bundled_run):
        run = bundled_run
        for report in (ar.build_report(run.portfolio, run.banded, run.dist, run.levels, run.config, run.findings),
                       book_report(synthetic_book(2000, seed=11), [0.1, 0.05, 0.01, 0.001])):
            assert report.to_json() == template_json(report)
            assert report.contributions_csv() == template_contributions_csv(report)

    def test_findings_past_a_chunk_edge(self, bundled_run):
        # 4100 findings and no number column: the findings list's rows cross the writer's 4096-row chunk edge
        run = bundled_run
        hostile = ["a\x00b", "Ålborg 農協", "", "%s", '"%s"', "two\nlines"]
        findings = tuple(ar.ValidationFinding("ratio_sum", "warning", f"{hostile[i % 6]}{i}", hostile[(i * 5) % 6])
                         for i in range(4100))
        report = ar.build_report(run.portfolio, run.banded, run.dist, [0.1, 0.01], run.config, findings)
        assert report.to_json() == oracle_json(report)

    def test_peak_memory_of_both_writers(self):
        # 20,000 rows of 4 numbers: per-row strs are read a chunk at a time, never all held beside the text
        n = 20_000
        rng = np.random.default_rng(20)
        values = rng.choice([-1.0, 1.0], (n, 4)) * np.exp(rng.uniform(-10.0, 10.0, (n, 4)))
        table = ar.ContributionTable(
            levels=(0.1, 0.05, 0.001), obligor_ids=tuple(f"B{i:06d}" for i in range(n)),
            names=tuple(f"Book ESP, {i}" for i in range(n)), expected_loss=values[:, 0],
            contributions=values[:, 1:], total_expected_loss=float(values[:, 0].sum()),
            totals=tuple(values[:, 1:].sum(axis=0).tolist()))
        report = ar.RiskReport(config={"unit": 1.0}, findings=(), moments=ar.Moments(1.5, 2.25, False),
                               contributions=table)
        for write, oracle in ((report.to_json, oracle_json), (report.contributions_csv, oracle_contributions_csv)):
            tracemalloc.start()
            try:
                text = write()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * len(text)
            assert text == oracle(report)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_config_value_refused(self, bundled_run, value):
        # json wrote "rate": Infinity (or NaN), which is not JSON
        run = bundled_run
        report = ar.build_report(run.portfolio, run.banded, run.dist, [0.1], dict(run.config, rate=value))
        message = "report.json would hold a number that is not finite, such as a config value"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            report.to_json()

    @pytest.mark.parametrize("field, value", [("contributions", (math.nan, 1.0)), ("expected_loss", math.inf),
                                              ("contributions", (1.0, -math.inf))])
    def test_non_finite_row_value_refused(self, bundled_run, field, value):
        # json would write NaN or Infinity and csv nan or inf: the table refuses them when it is built
        run = bundled_run
        report = ar.build_report(run.portfolio, run.banded, run.dist, [0.1, 0.01], run.config, run.findings)
        table = report.contributions
        columns = {"expected_loss": table.expected_loss.copy(), "contributions": table.contributions.copy()}
        columns[field][5] = value
        with pytest.raises(ModelError, match=rf"obligor {table.obligor_ids[5]!r} .* not finite"):
            ar.ContributionTable(levels=table.levels, obligor_ids=table.obligor_ids, names=table.names,
                                 total_expected_loss=table.total_expected_loss, totals=table.totals, **columns)

    @pytest.mark.parametrize("field, value", [("names", ("A",)), ("expected_loss", [1.0, 2.0, 3.0]),
                                              ("contributions", [[1.0], [2.0]]), ("totals", (1.0,))])
    def test_columns_of_another_length_refused(self, field, value):
        columns = dict(levels=(0.1, 0.01), obligor_ids=("a", "b"), names=("A", "B"), expected_loss=[1.0, 2.0],
                       contributions=[[1.0, 2.0], [3.0, 4.0]], total_expected_loss=3.0, totals=(4.0, 6.0))
        message = ("contribution table: ids, names, expected_loss and contributions need one entry per obligor, "
                   "contributions and totals one per level")
        ar.ContributionTable(**columns)
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            ar.ContributionTable(**columns | {field: value})

    @pytest.mark.parametrize("field, value", [("total_expected_loss", math.inf), ("totals", (1.0, math.nan))])
    def test_non_finite_total_refused(self, bundled_run, field, value):
        table = ar.risk_contributions(bundled_run.banded, bundled_run.dist, [0.1, 0.01])
        with pytest.raises(ModelError, match="totals must be finite"):
            replace(table, **{field: value})

import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

import agririsk as ar
from agririsk.engine import _MAX_GAMMA_SCALE
from agririsk.errors import InputError
from agririsk.simulate import BLOCK_VARIATES, CHUNK_DRAWS, _count_first, _quantile_band

from conftest import make_banded, single_sector
from test_engine import poisson_sector


def sample_distribution(dist: ar.LossDistribution, n_draws: int, seed: int) -> ar.EmpiricalDistribution:
    """Inverse-CDF draws from an analytic distribution, to compare it with itself."""
    rng = np.random.default_rng(seed)
    idx = np.minimum(np.searchsorted(dist.cdf, rng.random(n_draws), side="right"), dist.pmf.size - 1)
    return ar.EmpiricalDistribution(samples=np.sort(idx * dist.unit), mode="inverse-cdf", seed=seed)


class TestSimulate:
    def test_fixed_seed_is_bit_identical(self, bundled_banded):
        cfg = ar.SimConfig(n_draws=5000, seed=99)
        a = ar.simulate(bundled_banded, cfg)
        b = ar.simulate(bundled_banded, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.clamp_count == b.clamp_count

    def test_chunk_boundary_determinism(self, bundled_banded):
        # n_draws beyond one chunk exercises per-chunk child seeds
        from agririsk.simulate import CHUNK_DRAWS

        cfg = ar.SimConfig(n_draws=CHUNK_DRAWS + 17, seed=3)
        a = ar.simulate(bundled_banded, cfg)
        b = ar.simulate(bundled_banded, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_all_zero_rates_yield_zero_loss(self):
        sectored, banded = single_sector("A,A,100,0.0,0.0,0.5,0.5\n")
        emp = ar.simulate(banded, ar.SimConfig(n_draws=500, seed=1), sectored)
        assert np.all(emp.samples == 0.0)

    def test_certain_default_bernoulli(self):
        sectored, banded = single_sector("A,A,123.25,1.0,0.0,0.5,0.5\n")
        emp = ar.simulate(
            banded, ar.SimConfig(n_draws=400, seed=5, mode="bernoulli-exact"), sectored
        )
        assert np.all(emp.samples == 123.25)

    def test_poisson_band_sample_mean(self):
        banded = poisson_sector([(1, 2.0)])
        n = 200_000
        emp = ar.simulate(banded, ar.SimConfig(n_draws=n, seed=11))
        assert abs(emp.mean - 2.0) <= 3.0 * math.sqrt(2.0 / n)

    def test_sample_mean_matches_banded_expected_loss(self, bundled_banded):
        n = 100_000
        emp = ar.simulate(bundled_banded, ar.SimConfig(n_draws=n, seed=2))
        _, variance = ar.analytic_moments(bundled_banded)
        se = math.sqrt(variance / n)
        assert abs(emp.mean - bundled_banded.expected_loss) <= 4.0 * se

    def test_sigma_zero_matches_poisson_engine(self, bundled_portfolio):
        sectored = ar.assign_sectors(
            bundled_portfolio,
            ar.SectorAssignment("crop-livestock", {"crop": (0.02, 0.0), "livestock": (0.02, 0.0)}),
        )
        banded = ar.band_exposures(sectored, 1.0)
        dist = ar.loss_dist_poisson(banded, ar.auto_grid_size(banded))
        emp = ar.simulate(banded, ar.SimConfig(n_draws=200_000, seed=17))
        report = ar.compare(dist, emp, [0.1, 0.05, 0.01])
        assert report.flag_count == 0

    def test_bernoulli_losses_bounded_by_total_exposure(self, bundled_run):
        sectored, banded = bundled_run.sectored, bundled_run.banded
        emp = ar.simulate(
            banded, ar.SimConfig(n_draws=50_000, seed=23, mode="bernoulli-exact"), sectored
        )
        total = bundled_run.portfolio.total_exposure
        assert float(emp.samples.max()) <= total
        report = ar.compare(bundled_run.dist, emp, [0.1], total_exposure=total)
        assert report.empirical_p_exceeds_total == 0.0
        assert report.analytic_p_exceeds_total >= 0.0

    def test_bernoulli_mode_requires_sectored_view(self, bundled_banded):
        with pytest.raises(InputError, match="sectored"):
            ar.simulate(bundled_banded, ar.SimConfig(n_draws=10, seed=1, mode="bernoulli-exact"))

    @pytest.mark.parametrize("mode", ["single", "per-obligor"])
    def test_bernoulli_mode_refuses_another_sectored_view(self, bundled_portfolio, mode):
        # a single-mode view zipped its one sector with crop-livestock's two params, under the wrong gamma law
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("crop-livestock")), 1.0)
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode))
        cfg = ar.SimConfig(n_draws=1000, seed=1, mode="bernoulli-exact")
        with pytest.raises(InputError, match="the sectored portfolio the banded one was built from"):
            ar.simulate(banded, cfg, sectored)

    def test_bernoulli_mode_refuses_other_obligors_or_sub_counts(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("single"))
        banded = ar.band_exposures(sectored, 1.0)
        cfg = ar.SimConfig(n_draws=10, seed=1, mode="bernoulli-exact")
        renamed = dataclasses.replace(sectored, obligor_ids=("X",) + sectored.obligor_ids[1:])
        fewer = dataclasses.replace(sectored, subs=sectored.subs[1:])
        for other in (renamed, fewer):
            with pytest.raises(InputError, match="built from"):
                ar.simulate(banded, cfg, other)

    @pytest.mark.parametrize("mode", ar.portfolio.MC_MODES)
    def test_gamma_shapes_are_the_engines(self, bundled_portfolio, monkeypatch, mode):
        # per-obligor on the bundled data: one sector's scalar cv**-2 differs from numpy's in the last bit
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor"))
        banded = ar.band_exposures(sectored, 10.0)
        module = importlib.import_module("agririsk.simulate")
        shapes, draw = [], module._gamma_scalings

        def recorded(rng, alpha, size):
            shapes.append(alpha)
            return draw(rng, alpha, size)

        monkeypatch.setattr(module, "_gamma_scalings", recorded)
        ar.simulate(banded, ar.SimConfig(n_draws=10, seed=1, mode=mode), sectored)
        alpha = banded._cumulant.alpha.tolist()
        assert len(alpha) == 22
        assert shapes == alpha

    def test_clamped_probabilities_are_counted(self):
        # huge volatility makes p * scaling exceed 1 in some draws
        sectored, banded = single_sector("A,A,10,0.5,2.5,0.5,0.5\n")
        emp = ar.simulate(
            banded, ar.SimConfig(n_draws=20_000, seed=31, mode="bernoulli-exact"), sectored
        )
        assert emp.clamp_count > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(InputError):
            ar.SimConfig(n_draws=0, seed=1)
        with pytest.raises(InputError):
            ar.SimConfig(n_draws=10, seed=1, mode="quasi")
        with pytest.raises(InputError, match="seed"):
            ar.SimConfig(n_draws=10, seed=-1)


class TestBlockedDraws:
    def test_bernoulli_chunk_memory_is_bounded(self):
        # one full chunk over 256 sub-exposures; a (draws x subs) float matrix is 134 MB
        subs = 256
        rows = "".join(f"O{i},O{i},{10 + i % 7},0.02,0.01,0.5,0.5\n" for i in range(subs))
        sectored, banded = single_sector(rows)
        cfg = ar.SimConfig(n_draws=CHUNK_DRAWS, seed=7, mode="bernoulli-exact")
        tracemalloc.start()
        try:
            ar.simulate(banded, cfg, sectored)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_DRAWS * subs * 8

    @pytest.mark.parametrize("mode", ["poisson-banded", "bernoulli-exact"])
    def test_blocked_draws_match_one_block(self, bundled_run, monkeypatch, mode):
        sectored, banded = bundled_run.sectored, bundled_run.banded
        cfg = ar.SimConfig(n_draws=3000, seed=13, mode=mode)
        whole = ar.simulate(banded, cfg, sectored)
        # the module, not the simulate function that the package exports under its name
        monkeypatch.setattr(importlib.import_module("agririsk.simulate"), "BLOCK_VARIATES", 1000)
        blocked = ar.simulate(banded, cfg, sectored)
        np.testing.assert_allclose(blocked.samples, whole.samples, rtol=1e-12, atol=0.0)
        assert blocked.clamp_count == whole.clamp_count


def _part_mu(banded: ar.BandedPortfolio) -> np.ndarray:
    (sector,) = banded.sectors
    return np.array([b.mu for b in sector.bands])


# hand-made gamma parts, one on each side of the sampling rule 1 + sum(mu) < bands:
# sum(mu) = 0.5 over 8 bands draws count-first, sum(mu) = 20 over 3 bands draws per band
COUNT_FIRST_BANDS = [(v, 0.0625 * v) for v in (1, 2, 3, 5, 8, 13, 21, 34)]
PER_BAND_BANDS = [(2, 20.0), (5, 30.0), (9, 36.0)]
SIDES = [
    pytest.param(COUNT_FIRST_BANDS, True, id="count-first"),
    pytest.param(PER_BAND_BANDS, False, id="per-band"),
]


class TestCountFirst:
    @pytest.mark.parametrize("bands, count_first", SIDES)
    def test_each_side_samples_the_banded_law(self, bands, count_first):
        banded = make_banded([("g", 0.6, bands)])
        assert _count_first(_part_mu(banded)) is count_first
        n = 200_000
        emp = ar.simulate(banded, ar.SimConfig(n_draws=n, seed=41))
        mean, variance = ar.analytic_moments(banded)
        assert abs(emp.mean - mean) <= 4.0 * math.sqrt(variance / n)
        dist = ar.loss_dist_fft(banded, ar.auto_grid_size(banded))
        assert ar.compare(dist, emp, [0.1, 0.05, 0.01]).flag_count == 0

    def test_pooled_unmixed_sectors_sample_the_banded_law(self):
        # two unmixed sectors sharing level 3, around a gamma one: part 0 pools both and is drawn first
        banded = make_banded([
            ("a", 0.0, [(1, 0.5), (3, 0.9), (7, 0.35)]),
            ("g", 0.8, [(1, 0.3), (4, 0.7)]),
            ("b", 0.0, [(2, 0.6), (3, 0.4), (5, 0.8)]),
        ])
        pooled, gamma_part = banded._cumulant.parts()
        assert (pooled[0].tolist(), pooled[2]) == ([1, 2, 3, 5, 7], None)
        assert (gamma_part[0].tolist(), gamma_part[2][0]) == ([1, 4], banded._cumulant.alpha[0])
        n = 200_000
        emp = ar.simulate(banded, ar.SimConfig(n_draws=n, seed=43))
        mean, variance = ar.analytic_moments(banded)
        assert abs(emp.mean - mean) <= 4.0 * math.sqrt(variance / n)
        dist = ar.loss_dist_fft(banded, ar.auto_grid_size(banded))
        assert ar.compare(dist, emp, [0.1, 0.05, 0.01]).flag_count == 0

    def test_blocks_hold_whole_rows(self, monkeypatch):
        # sum(mu) = 5 over 40 bands with cv 1: many draws hold more than 12 defaults
        banded = make_banded([("g", 1.0, [(v, 0.125 * v) for v in range(1, 41)])])
        assert _count_first(_part_mu(banded))
        cfg = ar.SimConfig(n_draws=3000, seed=19)
        whole = ar.simulate(banded, cfg)
        module = importlib.import_module("agririsk.simulate")
        blocks, row_blocks = [], module._row_blocks

        def recorded(counts):
            got = list(row_blocks(counts))
            blocks.append((counts, got))
            return iter(got)

        monkeypatch.setattr(module, "BLOCK_VARIATES", 12)
        monkeypatch.setattr(module, "_row_blocks", recorded)
        blocked = ar.simulate(banded, cfg)
        np.testing.assert_allclose(blocked.samples, whole.samples, rtol=1e-12, atol=0.0)
        ((counts, got),) = blocks
        assert [lo for lo, _, _ in got] == [0] + [hi for _, hi, _ in got[:-1]]
        assert got[-1][1] == counts.size
        for lo, hi, picks in got:
            assert picks == counts[lo:hi].sum()
            assert picks <= 12 or hi - lo == 1
        assert any(hi - lo == 1 and picks > 12 for lo, hi, picks in got)  # a row alone over the limit
        assert any(hi - lo > 1 for lo, hi, _ in got)

    def test_count_first_chunk_memory_is_bounded(self):
        # one full chunk of sum(mu) = 200 over 256 bands: 13.1M picks, and one float per pick is 105 MB
        banded = make_banded([("g", 0.3, [(v, 200.0 / 256 * v) for v in range(1, 257)])])
        assert _count_first(_part_mu(banded))
        assert CHUNK_DRAWS * 200 > 3 * BLOCK_VARIATES
        tracemalloc.start()
        try:
            ar.simulate(banded, ar.SimConfig(n_draws=CHUNK_DRAWS, seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_DRAWS * 200 * 8

    def test_per_band_chunk_memory_is_bounded(self):
        # one full chunk over 64 bands is one block of 4.2M variates: the rates and the int64 counts
        # take 16 bytes a variate, and a float64 copy of the counts for the product would make it 24
        banded = make_banded([("g", 0.3, [(v, 200.0 / 64 * v) for v in range(1, 65)])])
        assert not _count_first(_part_mu(banded))
        assert CHUNK_DRAWS * 64 == BLOCK_VARIATES
        tracemalloc.start()
        try:
            ar.simulate(banded, ar.SimConfig(n_draws=CHUNK_DRAWS, seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_DRAWS * 64 * 20

    @pytest.mark.parametrize("bands, count_first", SIDES)
    def test_gamma_scale_at_the_limit_draws(self, bands, count_first):
        # the sector's gamma scale cv**2 * sum(mu) just under the largest band_exposures accepts
        total = sum(eps / v for v, eps in bands)
        cv = math.sqrt(0.99 * _MAX_GAMMA_SCALE / total)
        banded = make_banded([("g", cv, bands)])
        assert _count_first(_part_mu(banded)) is count_first
        emp = ar.simulate(banded, ar.SimConfig(n_draws=100_000, seed=5))
        assert np.all(np.isfinite(emp.samples)) and emp.samples[0] >= 0.0


class TestEmpiricalQuantile:
    def test_range_sample(self):
        emp = ar.EmpiricalDistribution(
            samples=np.arange(100, dtype=float), mode="poisson-banded"
        )
        # exactly 5 of {0..99} exceed 94
        assert ar.empirical_exceedance_quantile(emp, 0.05) == 94.0

    def test_constant_sample(self):
        emp = ar.EmpiricalDistribution(samples=np.full(64, 7.0))
        for eps in (0.5, 0.1, 0.01):
            assert ar.empirical_exceedance_quantile(emp, eps) == 7.0

    def test_median_of_four(self):
        emp = ar.EmpiricalDistribution(samples=np.array([1.0, 2.0, 3.0, 4.0]))
        assert ar.empirical_exceedance_quantile(emp, 0.5) == 2.0

    def test_unsorted_sample_rejected(self):
        with pytest.raises(InputError, match="sorted"):
            ar.EmpiricalDistribution(samples=np.array([2.0, 1.0]))


class TestCompare:
    def test_self_consistency_zero_flags(self, bundled_dist):
        emp = sample_distribution(bundled_dist, 200_000, seed=8)
        report = ar.compare(bundled_dist, emp, [0.1, 0.05, 0.01])
        assert report.flag_count == 0

    def test_poisson_banded_vs_analytic_bundled(self, bundled_banded, bundled_dist):
        emp = ar.simulate(bundled_banded, ar.SimConfig(n_draws=200_000, seed=4))
        report = ar.compare(bundled_dist, emp, [0.1, 0.05, 0.01])
        assert report.flag_count == 0

    def test_report_serializes(self, bundled_dist):
        emp = sample_distribution(bundled_dist, 10_000, seed=12)
        report = ar.compare(bundled_dist, emp, [0.1], total_exposure=1e9)
        payload = report.to_json_dict()
        assert payload["flag_count"] == report.flag_count
        assert payload["rows"][0]["level"] == 0.1
        assert payload["analytic_p_exceeds_total"] == pytest.approx(0.0, abs=1e-12)

    def test_summary_contents(self, bundled_banded):
        emp = ar.simulate(bundled_banded, ar.SimConfig(n_draws=2048, seed=21))
        summary = emp.summary((0.1,))
        assert summary["n_draws"] == 2048
        assert summary["seed"] == 21
        assert summary["clamp_count"] == 0
        assert "0.1" in summary["quantiles"]

    def test_unresolvable_band_edge_is_the_top_grid_point(self, bundled_dist):
        # eps - 3 se = 1e-15 lies below every tail probability the pmf resolves
        _, hi = _quantile_band(bundled_dist, 0.01, (0.01 - 1e-15) / 3.0)
        assert hi == (bundled_dist.pmf.size - 1) * bundled_dist.unit

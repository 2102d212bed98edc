import dataclasses
import importlib.util
import json
import math
import re
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from scipy.stats import nbinom

import agririsk as ar
from agririsk.errors import InputError, ModelError

from conftest import REPO_ROOT, make_banded, raw_parts, run_python, single_sector

# regression constant: sum of eps_j / v_j on the bundled dataset, single
# sector, unit = 1; recomputed independently in test_bundled_single_sector_rate
BUNDLED_SINGLE_SECTOR_RATE = 0.568306248457


def poisson_pmf(lam: float, n: int) -> float:
    return math.exp(-lam) * lam**n / math.factorial(n)


def one_sector(cv: float, bands, unit: float = 1.0) -> ar.BandedPortfolio:
    return make_banded([("s", cv, bands)], unit=unit)


def poisson_sector(bands, unit: float = 1.0) -> ar.BandedPortfolio:
    return one_sector(0.0, bands, unit=unit)


class TestUnitsCeiling:
    def test_round_up(self):
        assert ar.units_ceiling(250.0, 100.0) == 3

    def test_exact_multiple_not_rounded_up(self):
        assert ar.units_ceiling(300.0, 100.0) == 3

    def test_quotient_float_fuzz_snaps(self):
        # 4.35 / 0.05 evaluates to 87.00000000000001
        assert ar.units_ceiling(4.35, 0.05) == 87

    def test_small_amounts_land_in_band_one(self):
        assert ar.units_ceiling(0.2, 100.0) == 1

    def test_array_matches_scalar_calls(self):
        amounts = [250.0, 300.0, 4.35 * 20, 0.2, 1e6 + 0.5]
        levels = ar.units_ceiling(np.array(amounts), 0.05)
        assert levels.tolist() == [ar.units_ceiling(a, 0.05) for a in amounts]
        assert isinstance(ar.units_ceiling(250.0, 100.0), int)

    def test_level_beyond_int64_refused(self):
        with pytest.raises(ModelError, match="larger unit"):
            ar.units_ceiling(800.0, 1e-300)


class TestBanding:
    def test_bulgaria_band(self, bundled_portfolio):
        columns = dataclasses.fields(ar.Portfolio)
        bulgaria = ar.Portfolio(**{f.name: getattr(bundled_portfolio, f.name)[:1] for f in columns})
        sectored = ar.assign_sectors(bulgaria, ar.SectorAssignment("single"))
        banded = ar.band_exposures(sectored, 1.0)
        band = banded.sectors[0].bands[0]
        assert band.v == 801
        assert band.epsilon == pytest.approx(24.96, abs=1e-6)
        assert band.epsilon / band.v == pytest.approx(24.96 / 801, rel=1e-9)

    def test_same_level_bands_merge(self):
        _, banded = single_sector("A,A,250,0.1,0.0,1.0,0.0\nB,B,201,0.2,0.0,1.0,0.0\n", unit=100.0)
        assert [b.v for b in banded.sectors[0].bands] == [3]
        assert banded.sectors[0].bands[0].epsilon == pytest.approx((250 * 0.1 + 201 * 0.2) / 100)
        assert banded.obligor_ids == ("A", "B")
        assert banded.sub_obligor.tolist() == [0, 1]
        assert banded.sub_level.tolist() == [3, 3]
        assert banded.sub_epsilon.tolist() == pytest.approx([250 * 0.1 / 100, 201 * 0.2 / 100])
        table = ar.risk_contributions(banded, ar.loss_dist_fft(banded, 64), [0.1])
        assert [r.obligor_id for r in table.rows] == ["A", "B"]
        assert [r.expected_loss for r in table.rows] == pytest.approx([250 * 0.1, 201 * 0.2])

    def test_banding_preserves_expected_loss(self, bundled_portfolio, bundled_banded):
        assert bundled_banded.expected_loss == pytest.approx(
            bundled_portfolio.total_expected_loss, rel=1e-6
        )

    def test_band_levels_are_ceilings(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("crop-livestock"))
        banded = ar.band_exposures(sectored, 1.0)
        expected_levels = {
            (sector.name, ar.units_ceiling(sub["amount"], 1.0))
            for sector in sectored.sectors
            for sub in sector.subs
        }
        got_levels = {(s.name, b.v) for s in banded.sectors for b in s.bands}
        assert got_levels == expected_levels

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_sub_table_sums_to_the_bands(self, bundled_portfolio, mode):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode))
        banded = ar.band_exposures(sectored, 1.0)
        assert banded.obligor_ids == sectored.obligor_ids
        assert banded.sub_sector.tolist() == [k for k, s in enumerate(sectored.sectors) for _ in s.subs]
        for k, (sector, banded_sector) in enumerate(zip(sectored.sectors, banded.sectors)):
            at = banded.sub_sector == k
            assert [banded.obligor_ids[i] for i in banded.sub_obligor[at]] == [
                sectored.obligor_ids[sub["obligor"]] for sub in sector.subs
            ]
            merged = {}
            for v, eps in zip(banded.sub_level[at].tolist(), banded.sub_epsilon[at].tolist()):
                merged[v] = merged.get(v, 0.0) + eps
            assert [(b.v, b.epsilon) for b in banded_sector.bands] == sorted(merged.items())

    def test_per_obligor_cv_is_each_obligors_rate_cv(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor"))
        banded = ar.band_exposures(sectored, 1.0)
        assert [s.name for s in banded.sectors] == list(bundled_portfolio.ids)
        rates = zip(bundled_portfolio.loss_rate_stddev.tolist(), bundled_portfolio.mean_loss_rate.tolist())
        for (stddev, mean), sector in zip(rates, banded.sectors):
            assert sector.params.cv == stddev / mean

    def test_sector_without_expected_defaults_is_poisson(self):
        # a zero mean rate, or a mean rate over subs that carry no loss: nothing to mix
        _, banded = single_sector("A,A,100,0.0,0.0,1.0,0.0\n")
        assert banded.sectors[0].params.is_poisson
        subs = np.array([(0, 0, 100.0, 0.0)], ar.SUB_DTYPE)
        banded = ar.band_exposures(ar.SectoredPortfolio(("s",), [0.03], [0.02], ("A",), subs), 1.0)
        assert banded.sectors[0].params.is_poisson

    def test_gamma_scale_rounding_rho_to_one_refused(self):
        # beta = cv**2 * count = (1e8 / 0.03)**2 * 0.3 ~ 3e18: rho = beta / (1 + beta) rounds to 1
        sectored = ar.SectoredPortfolio(("big",), [0.03], [1e8], ("A",), np.array([(0, 0, 100.0, 0.03)], ar.SUB_DTYPE))
        with pytest.raises(InputError, match=r"^sector 'big': rate volatility 100000000.0 is too large"):
            ar.band_exposures(sectored, 10.0)

    @pytest.mark.parametrize(
        "stddev, message",
        [([0.02, 1e8, 1e-160], r"^sector 'b': rate volatility 100000000.0 is too large for a gamma scale$"),
         ([0.02, 1e-160, 1e8], r"^sector 'b': rate volatility 1e-160 is too small for a gamma shape$"),
         ([0.0, 0.0, 1e8], r"^sector 'c': rate volatility 100000000.0 is too large for a gamma scale$")],
        ids=["large-before-small", "small-before-large", "after-two-unmixed"],
    )
    def test_gamma_refusals_name_the_first_bad_sector(self, stddev, message):
        subs = np.array([(0, k, 100.0, 0.03) for k in range(3)], ar.SUB_DTYPE)
        sectored = ar.SectoredPortfolio(("a", "b", "c"), [0.03] * 3, stddev, ("A",), subs)
        with pytest.raises(InputError, match=message):
            ar.band_exposures(sectored, 10.0)

    def test_gamma_scale_refusal_is_monotone(self, bundled_portfolio):
        # at 5e6, beta ~ 1.5e16 left rho just below 1, and the grid rule's "use a larger unit" followed
        for stddev in [5e6, *np.geomspace(4e6, 1e8, 60).tolist()]:
            rates = {"crop": (0.03, stddev)}
            sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("crop-livestock", rates))
            with pytest.raises(InputError, match=rf"^sector 'crop': rate volatility {stddev!r} is too large"):
                ar.band_exposures(sectored, 10.0)

    def test_nonpositive_unit_rejected(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("single"))
        with pytest.raises(InputError, match="unit"):
            ar.band_exposures(sectored, 0.0)

    def test_nonpositive_sub_amount_refused(self):
        subs = np.array([(0, 0, 100.0, 0.03), (1, 0, 0.0, 0.03)], ar.SUB_DTYPE)
        sectored = ar.SectoredPortfolio(("s",), [0.03], [0.02], ("B", "A"), subs)
        with pytest.raises(ModelError, match=r"^sub-exposure of A in 's' is not positive$"):
            ar.band_exposures(sectored, 1.0)


class TestPoissonRate:
    def test_single_band(self):
        assert ar.poisson_rate(poisson_sector([(1, 2.5)])) == pytest.approx(2.5)

    def test_two_bands(self):
        assert ar.poisson_rate(poisson_sector([(1, 1.0), (2, 3.0)])) == pytest.approx(2.5)

    def test_bundled_single_sector_rate(self, bundled_portfolio):
        sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("single"))
        banded = ar.band_exposures(sectored, 1.0)
        # independent recomputation straight from the obligor records
        exposure, mean = bundled_portfolio.exposure.tolist(), bundled_portfolio.mean_loss_rate.tolist()
        direct = sum((x * r) / math.ceil(x) for x, r in zip(exposure, mean))
        assert ar.poisson_rate(banded) == pytest.approx(direct, rel=1e-12)
        assert ar.poisson_rate(banded) == pytest.approx(BUNDLED_SINGLE_SECTOR_RATE, abs=1e-9)


class TestLossDistPoisson:
    def test_matches_direct_poisson_formula(self):
        lam = 2.0
        dist = ar.loss_dist_poisson(poisson_sector([(1, lam)]), 64)
        for n in range(11):
            assert dist.pmf[n] == pytest.approx(poisson_pmf(lam, n), rel=1e-12)

    def test_two_band_hand_enumeration(self):
        # bands (v=1, mu=1), (v=2, mu=1): pmf[2] = e^-2 (1/2! + 1)
        dist = ar.loss_dist_poisson(poisson_sector([(1, 1.0), (2, 2.0)]), 32)
        assert dist.pmf[2] == pytest.approx(math.exp(-2.0) * 1.5, rel=1e-12)

    def test_zero_risk_portfolio_is_point_mass_at_zero(self):
        dist = ar.loss_dist_poisson(poisson_sector([(1, 0.0), (5, 0.0)]), 16)
        assert dist.pmf[0] == 1.0
        assert dist.pmf[1:].sum() == 0.0

    def test_small_grid_error_names_minimum(self):
        with pytest.raises(ModelError, match="at least 6"):
            ar.loss_dist_poisson(poisson_sector([(5, 1.0)]), 4)


class TestLossDistSector:
    def test_negative_binomial_closed_form(self):
        alpha, rho = 2.0, 0.3
        dist = ar.loss_dist_sector(one_sector(alpha**-0.5, [(1, alpha * rho / (1 - rho))]), 64)
        expected = nbinom.pmf(np.arange(11), 2.0, 0.7)
        np.testing.assert_allclose(dist.pmf[:11], expected, rtol=0, atol=1e-12)

    def test_hand_built_rho_rounding_to_one_refused(self):
        # cv 1e9 on a count of 1: beta = 1e18; band_exposures refuses such a sector, a hand-built one stops here
        with pytest.raises(ModelError, match=r"rho must lie in \[0, 1\), got 1.0"):
            ar.engine._panjer(np.array([1]), np.array([1.0]), np.array([1.0]), (1e-18, 1e18), 64)

    def test_poisson_limit(self):
        bands = [(1, 0.5), (3, 0.9), (7, 0.35)]
        mixed = one_sector(1e-6 / 0.02, bands)
        dist_mixed = ar.loss_dist_sector(mixed, 512)
        dist_poisson = ar.loss_dist_poisson(mixed, 512)
        tv = 0.5 * np.abs(dist_mixed.pmf - dist_poisson.pmf).sum()
        assert tv < 1e-4

    def test_two_sectors_equal_convolution_of_parts(self):
        bands_a = [(1, 0.8), (4, 1.2)]
        bands_b = [(2, 0.6), (3, 0.9)]
        pa = 0.9
        pb = 0.5
        combined = ar.loss_dist_sector(make_banded([("a", pa, bands_a), ("b", pb, bands_b)]), 512)
        alone_a = ar.loss_dist_sector(make_banded([("a", pa, bands_a)]), 512)
        alone_b = ar.loss_dist_sector(make_banded([("b", pb, bands_b)]), 512)
        tv = 0.5 * np.abs(combined.pmf - np.convolve(alone_a.pmf, alone_b.pmf)[:512]).sum()
        assert tv <= 1e-12

    def test_sigma_zero_sector_falls_back_to_poisson(self):
        bands = [(1, 0.5), (3, 0.9)]
        banded = poisson_sector(bands)
        np.testing.assert_array_equal(
            ar.loss_dist_sector(banded, 128).pmf, ar.loss_dist_poisson(banded, 128).pmf
        )

    def test_tail_fattens_with_sector_volatility(self):
        # one band at v=1, mean count fixed at 2; tail beyond 2x mean must be
        # nondecreasing across a 3-point volatility grid
        mean_count = 2.0
        tails = []
        for sigma in (1.0, 2.0, 4.0):
            dist = ar.loss_dist_sector(
                one_sector(sigma / mean_count, [(1, mean_count)]), 4096
            )
            tails.append(1.0 - dist.cdf)
        for q in (4, 6, 10, 20):
            assert tails[0][q] <= tails[1][q] <= tails[2][q]


class TestHandBuiltSectors:
    # unsorted, a repeated level and a zero-loss band; MERGED is the same sector sorted and merged
    RAW = [(3, 0.4), (1, 0.5), (3, 0.2), (5, 0.0)]
    MERGED = [(1, 0.5), (3, 0.4 + 0.2)]

    @pytest.mark.parametrize("cv", [0.0, 0.8])
    @pytest.mark.parametrize("backend", [ar.loss_dist_sector, ar.loss_dist_fft, ar.loss_dist_poisson])
    def test_unsorted_repeated_and_zero_bands_match_merged(self, backend, cv):
        level, eps = (np.array(col) for col in zip(*self.RAW))
        zeros = np.zeros(len(self.RAW), dtype=np.int64)
        raw = ar.BandedPortfolio(1.0, ("s",), [cv], ("A",), zeros, zeros, level, eps)
        merged = one_sector(cv, self.MERGED)
        tv = 0.5 * np.abs(backend(raw, 64).pmf - backend(merged, 64).pmf).sum()
        assert tv <= 1e-12


class TestTableChecks:
    # one sector "s" of obligor "A": the sub table (obligor, sector, level, epsilon)
    GOOD = ([0, 0], [0, 0], [1, 3], [0.5, 0.2])

    @staticmethod
    def build(obligor, sector, level, epsilon) -> ar.BandedPortfolio:
        return ar.BandedPortfolio(
            1.0, ("s",), [0.5], ("A",),
            np.array(obligor), np.array(sector), np.array(level), np.array(epsilon, dtype=float),
        )

    def test_good_table_builds_its_sector_view(self):
        (sector,) = self.build(*self.GOOD).sectors
        assert (sector.name, sector.params) == ("s", ar.SectorParams(0.5))
        assert [(b.v, b.epsilon) for b in sector.bands] == [(1, 0.5), (3, 0.2)]

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (3, [0.5, math.nan], r"^band expected loss must be finite and >= 0, got nan$"),
            (3, [0.5, math.inf], r"^band expected loss must be finite and >= 0, got inf$"),
            (3, [0.5, -0.1], r"^band expected loss must be finite and >= 0, got -0.1$"),
            (2, [1, 0], r"^band level must be a positive integer, got 0$"),
            (3, [0.5], r"need equal lengths$"),
            (1, [0, 1], r"^sub-exposure sector index outside 0..0$"),
            (0, [0, -1], r"^sub-exposure obligor index outside 0..0$"),
        ],
    )
    def test_bad_table_refused(self, column, value, message):
        columns = list(self.GOOD)
        columns[column] = value
        with pytest.raises(ModelError, match=message):
            self.build(*columns)

    @pytest.mark.parametrize(
        "names, cv, message",
        [
            (("s",), [0.5, 0.0], r"^banded portfolio: names and cv, and the four sub_\* arrays, need equal lengths$"),
            (("s",), [[0.5]], r"need equal lengths$"),
            (("s",), [math.nan], r"^sector cv must be finite and >= 0, got nan$"),
            (("s",), [math.inf], r"^sector cv must be finite and >= 0, got inf$"),
            (("s",), [-0.5], r"^sector cv must be finite and >= 0, got -0.5$"),
            (("s", "t", "u"), [0.5, -1.0, math.nan], r"^sector cv must be finite and >= 0, got -1.0$"),
        ],
        ids=["longer", "2-d", "nan", "inf", "negative", "first-of-two"],
    )
    def test_bad_cv_refused(self, names, cv, message):
        with pytest.raises(ModelError, match=message):
            ar.BandedPortfolio(1.0, names, cv, ("A",), *(np.array(c) for c in self.GOOD[:3]), np.array(self.GOOD[3]))

    def test_cv_becomes_a_float64_array(self):
        banded = make_banded([("a", 0, [(1, 0.5)]), ("b", 1, [(2, 0.5)])])
        assert banded.cv.dtype == np.float64 and banded.cv.tolist() == [0.0, 1.0]
        assert [s.params for s in banded.sectors] == [ar.SectorParams(0.0), ar.SectorParams(1.0)]

    def test_names_and_params_of_unequal_length_refused(self):
        with pytest.raises(ModelError, match="need equal lengths"):
            ar.BandedPortfolio(1.0, ("s", "t"), [0.0], ("A",), *(np.zeros(0, int),) * 3, np.zeros(0))


class TestParts:
    # two unmixed sectors sharing level 3, and one gamma sector
    BANDS_A = [(1, 0.5), (3, 0.9), (7, 0.35)]
    BANDS_B = [(2, 0.6), (3, 0.4), (5, 0.8)]
    BANDS_G = [(1, 0.3), (4, 0.7)]

    def test_unmixed_sectors_pool_into_one_recursion(self):
        a, b = self.BANDS_A, self.BANDS_B
        banded = make_banded([("a", 0.0, a), ("b", 0.0, b)])
        sector, poisson = ar.loss_dist_sector(banded, 256), ar.loss_dist_poisson(banded, 256)
        np.testing.assert_array_equal(sector.pmf, poisson.pmf)
        assert sector.tail_bound == poisson.tail_bound

    def test_gamma_sector_beside_the_pooled_part_matches_fft(self):
        a, b, g = self.BANDS_A, self.BANDS_B, self.BANDS_G
        banded = make_banded(
            [("a", 0.0, a), ("g", 0.8, g), ("b", 0.0, b)]
        )
        grid = ar.auto_grid_size(banded)
        panjer, fft = ar.loss_dist_sector(banded, grid), ar.loss_dist_fft(banded, grid)
        assert 0.5 * float(np.abs(panjer.pmf - fft.pmf).sum()) <= 1e-12
        assert panjer.tail_bound == fft.tail_bound <= ar.engine.TAIL_EPS

    @pytest.mark.parametrize("mode", ar.portfolio.SECTOR_MODES)
    def test_parts_carry_each_level_expected_count(self, bundled_portfolio, mode):
        # both backends and the sampler read mu from the model's columns, so it must be the quotient they divided
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), 1.0)
        parts = raw_parts(banded)
        assert parts
        for vs, eps, mu, _ in parts:
            assert np.array_equal(mu, eps / vs)


def scalar_panjer(vs, eps, cv, grid_size, count=None):
    """Reference (a, b, 0) recursion: one Python step per grid point, summing the levels v_j <= n.

    A Poisson count (cv 0) starts from g_0 = exp(-count), count sum(eps / vs) unless given.
    """
    mu = eps / vs
    if cv == 0.0:
        fa, fbv = np.zeros(vs.size), eps
        log_g0 = -float(mu.sum() if count is None else count)
    else:
        beta = cv**2 * mu.sum()
        alpha, rho = cv**-2, beta / (1.0 + beta)
        f = mu / mu.sum()
        fa, fbv = rho * f, rho * (alpha - 1.0) * f * vs
        log_g0 = alpha * math.log1p(-rho)
    g = np.zeros(grid_size)
    g[0] = math.exp(log_g0)
    for n in range(1, grid_size):
        k = int(vs.searchsorted(n, side="right"))
        if k:
            prev = g[n - vs[:k]]
            g[n] = float(np.dot(fa[:k], prev)) + float(np.dot(fbv[:k], prev)) / n
    return g


class TestBlockedPanjer:
    CASES = {
        "v_min 1": ([(1, 0.5), (3, 0.9), (7, 0.35)], 512),
        "grid not a multiple of v_min": ([(3, 0.6), (4, 1.1), (9, 0.4)], 500),
        "single band": ([(5, 2.0)], 256),
        "v_min above half the grid": ([(40, 3.0), (45, 1.5)], 64),
        "block capped by its gather size": ([(v, 0.01 * v) for v in range(300, 600)], 1500),
        # block 218 = 65536 // 300, and grid - 1 is seven whole blocks: the last block ends on the grid's end
        "capped blocks filling the grid": ([(v, 0.01 * v) for v in range(300, 600)], 1 + 218 * 7),
        # the least grid _check_grid accepts, max level + 1: blocks of v_min = 3, the last one point past the grid
        "least grid": ([(3, 0.6), (5, 1.1), (8, 0.4)], 9),
    }

    @pytest.mark.parametrize("cv", [0.0, 0.8])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scalar_recursion(self, case, cv):
        bands, grid = self.CASES[case]
        vs = np.array([v for v, e in bands if e > 0.0], dtype=np.int64)
        eps = np.array([e for v, e in bands if e > 0.0])
        gamma = (cv**-2, cv**2 * float((eps / vs).sum())) if cv else None
        expected = scalar_panjer(vs, eps, cv, grid)
        got = ar.engine._panjer(vs, eps, eps / vs, gamma, grid)
        assert got.shape == expected.shape
        live = expected >= 1e-300
        assert np.all(np.abs(got[live] - expected[live]) <= 1e-13 * expected[live])
        assert np.all(np.abs(got[~live]) <= 1e-300)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pool_count_past_the_grid_matches_scalar_recursion(self, case):
        # loss_dist_sector passes the pool's whole count, which also holds the levels past the grid
        bands, grid = self.CASES[case]
        vs = np.array([v for v, _ in bands], dtype=np.int64)
        eps = np.array([e for _, e in bands])
        count = float((eps / vs).sum()) + 0.75
        expected = scalar_panjer(vs, eps, 0.0, grid, count)
        assert expected[0] == math.exp(-count)
        got = ar.engine._panjer(vs, eps, eps / vs, None, grid, count)
        live = expected >= 1e-300
        assert np.all(np.abs(got[live] - expected[live]) <= 1e-13 * expected[live])
        assert np.all(np.abs(got[~live]) <= 1e-300)

    @pytest.mark.parametrize("cv", [0.0, 0.8])
    def test_least_grid_is_the_largest_level_plus_one(self, cv):
        bands, grid = self.CASES["least grid"]
        banded = one_sector(cv, bands)
        assert banded.max_v + 1 == grid
        with pytest.raises(ModelError, match=f"grid_size {grid - 1} too small for the largest band"):
            ar.loss_dist_sector(banded, grid - 1)
        assert ar.loss_dist_sector(banded, grid).pmf.shape == (grid,)

    @pytest.mark.parametrize("cv", [0.0, 0.8])
    def test_zero_loss_bands_match_scalar_recursion(self, cv):
        # no part carries loss, so loss_dist_sector gives the point mass without running _panjer
        got = ar.loss_dist_sector(one_sector(cv, [(2, 0.0), (6, 0.0)]), 64).pmf
        np.testing.assert_array_equal(got, scalar_panjer(np.zeros(0, np.int64), np.zeros(0), cv, 64))

    @pytest.mark.parametrize(
        "backend, cv", [(ar.loss_dist_poisson, 0.0), (ar.loss_dist_sector, 0.0), (ar.loss_dist_sector, 0.01)]
    )
    def test_large_count_splits_instead_of_underflowing(self, backend, cv):
        # 1100 expected defaults: g_0 = exp(-1100) (cv 0.01: exp(-1044)) is below the float range
        bands = [(1, 400.0), (2, 800.0), (3, 900.0)]
        banded = one_sector(cv, bands)
        grid = ar.auto_grid_size(banded)
        dist = backend(banded, grid)
        fft = ar.loss_dist_fft(banded, grid)
        assert 0.5 * float(np.abs(dist.pmf - fft.pmf).sum()) <= 1e-8

    def test_bundled_parts_match_scalar_recursion(self, bundled_portfolio):
        # crop-livestock at unit 10: both sectors gamma-mixed, lowest band level 2
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment()), 10.0)
        grid = ar.auto_grid_size(banded)
        parts = list(banded._cumulant.parts())
        assert grid == 8000 and min(int(vs[0]) for vs, _, _, _ in parts) == 2
        assert [gamma is None for _, _, _, gamma in parts] == [False] * banded.cv.size
        for (vs, eps, mu, gamma), cv in zip(parts, banded.cv.tolist()):
            expected = scalar_panjer(vs, eps, cv, grid)
            got = ar.engine._panjer(vs, eps, mu, gamma, grid)
            live = expected >= 1e-300
            assert np.all(np.abs(got[live] - expected[live]) <= 1e-13 * expected[live])
            assert np.all(np.abs(got[~live]) <= 1e-300)

    @pytest.mark.parametrize("cv", [0.0, 0.01])
    def test_split_count_is_one_piece_convolved_with_itself(self, cv):
        # 1100 expected defaults: g_0 = exp(-1100) (cv 0.01: exp(-1044)), so the count splits in two
        bands = [(1, 400.0), (2, 800.0), (3, 900.0)]
        vs = np.array([v for v, _ in bands], dtype=np.int64)
        eps = np.array([e for _, e in bands])
        mu = float((eps / vs).sum())
        gamma = (cv**-2, cv**2 * mu) if cv else None
        log_g0 = -gamma[0] * math.log1p(gamma[1]) if cv else -mu
        m = math.ceil(log_g0 / ar.engine._LOG_G0_FLOOR)
        assert m == 2
        # a piece has the rate, or the gamma shape cv**-2, divided by m, and the same gamma scale
        piece = scalar_panjer(vs, eps / m, cv * math.sqrt(m), 2700)
        expected = reduce(ar.engine._convolve_pmfs, [piece] * m)
        got = ar.engine._panjer(vs, eps, eps / vs, gamma, 2700)
        # the convolution's FFT round-off is absolute, about 1e-16 of the peak, so the
        # comparison is relative to the peak, not to each entry of the far tail
        assert np.all(np.abs(got - expected) <= 1e-12 * expected.max())


class TestLossDistFft:
    def test_poisson_single_band_matches_direct_formula(self):
        lam = 2.0
        dist = ar.loss_dist_fft(poisson_sector([(1, lam)]), 64)
        for n in range(20):
            assert dist.pmf[n] == pytest.approx(poisson_pmf(lam, n), abs=1e-10)

    def test_matches_panjer_on_mixed_sectors(self):
        bands_a = [(1, 0.4), (5, 1.0)]
        bands_b = [(2, 0.8), (7, 0.6)]
        banded = make_banded(
            [("a", 1.2, bands_a), ("b", 0.0, bands_b)]
        )
        fft = ar.loss_dist_fft(banded, 1024)
        panjer = ar.loss_dist_sector(banded, 1024)
        assert 0.5 * np.abs(fft.pmf - panjer.pmf).sum() <= 1e-8

    # rho = 1.3e-9, 5.2e-5 (just below 1e-4) and 5.3e-13
    @pytest.mark.parametrize("cv", [5e-5, 1e-2, 1e-6])
    def test_tiny_rho_series_branch_matches_panjer(self, cv):
        bands = [(1, 0.3), (4, 0.9)]
        beta = cv**2 * sum(eps / v for v, eps in bands)
        assert 0.0 < beta / (1.0 + beta) < 1e-4
        banded = one_sector(cv, bands)
        fft = ar.loss_dist_fft(banded, 512)
        panjer = ar.loss_dist_sector(banded, 512)
        assert 0.5 * np.abs(fft.pmf - panjer.pmf).sum() <= 1e-8

    def test_low_volatility_large_count_matches_panjer(self):
        # rho = 5.2e-4: alpha*(log(1-rho) - log(1-rho*Q)) cancels to a pmf entry of -4e-14
        bands = [(1, 300.0), (4, 900.0)]
        banded = one_sector(1e-3, bands)
        fft = ar.loss_dist_fft(banded, 16384)
        panjer = ar.loss_dist_sector(banded, 16384)
        assert 0.5 * np.abs(fft.pmf - panjer.pmf).sum() <= 1e-8

    # any length transforms: a 5-smooth one above the auto grid, and a prime one
    @pytest.mark.parametrize("unit, grid", [(1.0, 100_000), (10.0, 10_007)])
    def test_any_grid_length_matches_panjer(self, bundled_portfolio, unit, grid):
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment()), unit)
        fft = ar.loss_dist_fft(banded, grid)
        panjer = ar.loss_dist_sector(banded, grid)
        assert fft.pmf.size == panjer.pmf.size == grid
        assert fft.tail_bound == panjer.tail_bound == banded._cumulant.tail_bound(grid) <= 1e-12
        assert 0.5 * np.abs(fft.pmf - panjer.pmf).sum() <= 1e-8

    def test_insufficient_padding_rejected(self):
        with pytest.raises(ModelError, match="at least 22"):
            ar.loss_dist_fft(poisson_sector([(10, 1.0)]), 16)


def per_part_fft(banded: ar.BandedPortfolio, grid_size: int) -> np.ndarray:
    """loss_dist_fft's pmf as 0.17.0 computed it: one rfft per part, and one complex log1p per gamma part."""
    log_g = np.zeros(grid_size // 2 + 1, dtype=complex)
    for vs, _, mu, gamma in raw_parts(banded):
        count = mu.sum()
        q = np.fft.rfft(np.bincount(vs, weights=mu / count), grid_size)
        if gamma is None:
            log_g += count * (q - 1.0)
        else:
            alpha, beta = gamma
            log_g -= alpha * ar.engine._log1p(beta * (1.0 - q))
    return np.fft.irfft(np.exp(log_g), grid_size)


def nbinom_at_level(alpha: float, beta: float, v: int, size: int) -> np.ndarray:
    """An NB(alpha, beta) count of one level v: scipy's pmf placed at the multiples of v below size."""
    k = np.arange((size - 1) // v + 1)
    pmf = np.zeros(size)
    pmf[k * v] = nbinom.pmf(k, alpha, 1.0 / (1.0 + beta))
    return pmf


def oracle_pmf(banded: ar.BandedPortfolio, size: int) -> np.ndarray:
    """The model's pmf on [0, size): each single-level gamma part from scipy, every other part from
    scalar_panjer, combined by direct convolution."""
    pmf = np.eye(1, size)[0]
    for vs, eps, _, gamma in raw_parts(banded):
        if gamma is not None and vs.size == 1:
            part = nbinom_at_level(*gamma, int(vs[0]), size)
        else:
            part = scalar_panjer(vs, eps, 0.0 if gamma is None else gamma[0] ** -0.5, size)
        pmf = np.convolve(pmf, part)[:size]
    return pmf


def per_obligor_book(n: int, seed: int, unit: float) -> ar.BandedPortfolio:
    """n seeded obligors, each with a bundled row's rates and split and a lognormal exposure, one sector each."""
    bundled = ar.load_portfolio(ar.bundled_dataset_path())
    rng = np.random.default_rng(seed)
    pick = rng.integers(len(bundled.ids), size=n)
    portfolio = ar.Portfolio(
        ids=tuple(f"B{i}" for i in range(n)), names=tuple(f"Book {i}" for i in range(n)),
        exposure=4.3 * rng.lognormal(0.0, 1.0, n), mean_loss_rate=bundled.mean_loss_rate[pick],
        loss_rate_stddev=bundled.loss_rate_stddev[pick], crop_ratio=bundled.crop_ratio[pick],
        livestock_ratio=bundled.livestock_ratio[pick], expected_loss_declared=np.full(n, np.nan))
    return ar.band_exposures(ar.assign_sectors(portfolio, ar.SectorAssignment("per-obligor")), unit)


class TestFoldedSeries:
    """Single-level gamma parts with beta <= 1, folded into one compound Poisson by both backends."""

    # beside part 0 and a multi-level gamma part: beta exactly 1 (folded), just above 1 (exact path),
    # about 1e-12 (alpha 100) and 0.046
    MIXED = [
        ("p", 0.0, [(1, 0.5), (4, 1.0)]),
        ("m", 0.7, [(2, 0.6), (5, 0.8)]),
        ("one", 1.0, [(3, 3.0)]),
        ("above", 1.0, [(2, 2.0 + 2.0**-39)]),
        ("tiny", 0.1, [(6, 6e-10)]),
        ("s", 0.9, [(7, 0.4)]),
    ]

    def test_mixed_book_matches_the_oracle(self):
        banded = make_banded(self.MIXED)
        c = banded._cumulant
        assert c.beta[1] == 1.0 < c.beta[2] and 0.9e-12 < c.beta[3] < 1.1e-12
        assert c.folded.tolist() == [False, True, False, True, True]
        grid = ar.auto_grid_size(banded)
        expected = oracle_pmf(banded, grid)
        for backend in (ar.loss_dist_fft, ar.loss_dist_sector):
            assert float(np.abs(backend(banded, grid).pmf - expected).max()) <= 1e-13

    def test_levels_past_the_grid(self):
        # beta 1 at level 30 keeps 55 terms, up to level 1650: the FFT wraps them onto its 64 points as the
        # transform aliases the whole pmf, and Panjer's 64-point prefix counts their mass as truncated
        banded = make_banded([("p", 0.0, [(1, 0.5)]), ("w", 1.0, [(30, 30.0)])])
        levels, _, _ = banded._cumulant.series()
        assert levels.max() == 55 * 30
        whole = oracle_pmf(banded, 64 * 100)
        fft, panjer = ar.loss_dist_fft(banded, 64), ar.loss_dist_sector(banded, 64)
        assert float(np.abs(fft.pmf - whole.reshape(100, 64).sum(axis=0)).max()) <= 1e-15
        assert float(np.abs(panjer.pmf - whole[:64]).max()) <= 1e-15
        assert panjer.truncation_mass == pytest.approx(float(whole[64:].sum()), rel=1e-12)

    def test_pooled_count_above_700_splits(self):
        # two parts of alpha 2000 and beta 1/2, each a count alpha log1p beta = 811 of the series
        banded = make_banded([("a", 2000**-0.5, [(1, 1000.0)]), ("b", 2000**-0.5, [(2, 2000.0)])])
        _, _, count = banded._cumulant.series()
        assert math.ceil(count / -ar.engine._LOG_G0_FLOOR) == 3
        grid = ar.auto_grid_size(banded)
        expected = oracle_pmf(banded, grid)
        for backend in (ar.loss_dist_fft, ar.loss_dist_sector):
            # the split count's convolutions round off relative to the peak, not to each entry
            assert float(np.abs(backend(banded, grid).pmf - expected).max()) <= 1e-12 * expected.max()

    @pytest.mark.parametrize("beta", [1e-300, 1e-12, 0.01, 0.3, 0.999, 1.0])
    def test_least_terms_whose_tail_is_below_2_to_the_minus_60(self, beta):
        banded = one_sector(0.5, [(3, 12.0 * beta)])  # alpha 4, beta = 0.25 * 4 beta
        c = banded._cumulant
        levels, rates, count = c.series()
        alpha, beta, rho = 4.0, float(c.beta[0]), float(c.beta[0] / (1.0 + c.beta[0]))
        m = levels // 3
        terms = int(m.max())
        assert m.tolist() == list(range(1, terms + 1)) and np.all(levels == 3 * m) and terms <= 61
        np.testing.assert_allclose(rates, alpha * rho**m / m, rtol=1e-14)
        assert count == alpha * math.log1p(beta)

        def tail(k):  # a bound on the intensity past k terms
            return alpha * rho ** (k + 1) / ((k + 1) * (1.0 - rho))

        assert tail(terms) <= 2.0**-60 * count
        assert terms == 1 or tail(terms - 1) > 2.0**-60 * count

    def test_multi_level_parts_keep_their_own_code(self, bundled_portfolio):
        # every part outside per-obligor mode spans several levels, so no run there folds one
        for mode in ("crop-livestock", "single"):
            banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), 1.0)
            c = banded._cumulant
            assert not c.folded.any()
            assert [p[3] for p in c.parts()] == [p[3] for p in raw_parts(banded)]
        c = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor")), 2.0)._cumulant
        assert c.folded.all() and not list(c.parts())

    def test_per_obligor_book_matches_the_per_part_fft(self):
        banded = per_obligor_book(2000, 35, 10.0)
        assert banded._cumulant.folded.all()
        grid = ar.auto_grid_size(banded)
        reference = ar.LossDistribution(10.0, per_part_fft(banded, grid))
        levels = (0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001)
        for backend in (ar.loss_dist_fft, ar.loss_dist_sector):
            dist = backend(banded, grid)
            assert 0.5 * float(np.abs(dist.pmf - reference.pmf).sum()) <= 1e-8
            assert [ar.exceedance_quantile(dist, lvl) for lvl in levels] == \
                [ar.exceedance_quantile(reference, lvl) for lvl in levels]


class TestOnePool:
    """Part 0's bands and the folded parts' series are the run's one compound Poisson, _Cumulant.pool."""

    def test_fold_yields_only_negative_binomial_parts(self):
        c = make_banded(TestFoldedSeries.MIXED)._cumulant
        gammas = [gamma for *_, gamma in c.parts()]
        assert None not in gammas
        assert gammas == [(c.alpha[k], c.beta[k]) for k in np.flatnonzero(~c.folded)]

    def test_pool_is_part_0_then_the_series(self):
        banded = make_banded(TestFoldedSeries.MIXED)
        c = banded._cumulant
        (v0, eps0, mu0, gamma), *_ = raw_parts(banded)
        levels, rates, count = c.series()
        pool_levels, pool_eps, pool_mu, pool_count = c.pool
        assert gamma is None and v0.tolist() == [1, 4]
        assert pool_levels.tolist() == v0.tolist() + levels.tolist()
        assert pool_mu.tolist() == mu0.tolist() + rates.tolist()
        assert pool_eps[:2].tolist() == eps0.tolist()  # as given, not mu * v
        np.testing.assert_allclose(pool_eps[2:], levels * rates, rtol=1e-15)
        assert pool_count == float(mu0.sum()) + count  # the closed forms, dropped terms included

    @pytest.mark.parametrize("unit", [1.0, 10.0])
    def test_poisson_backend_is_one_recursion_of_part_0(self, bundled_portfolio, unit):
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment()), unit)
        (vs, eps, mu, gamma), = raw_parts(dataclasses.replace(banded, cv=np.zeros(len(banded.names))))
        grid = ar.auto_grid_size(banded)
        assert gamma is None
        assert np.array_equal(ar.loss_dist_poisson(banded, grid).pmf, ar.engine._panjer(vs, eps, mu, None, grid))

    @pytest.mark.parametrize("unit", [1.0, 10.0])
    def test_part_0_beside_a_gamma_sector(self, unit):
        # a zero stddev leaves crop unmixed, so part 0 sits beside livestock's multi-level gamma part
        fft, panjer = (ar.run_pipeline(unit=unit, sector_rates={"crop": (0.02, 0.0)}, backend=backend)
                       for backend in ("fft", "panjer"))
        c = fft.banded._cumulant
        assert [gamma is None for *_, gamma in raw_parts(fft.banded)] == [True, False] and not c.folded.any()
        assert fft.dist.pmf.size == panjer.dist.pmf.size
        assert 0.5 * float(np.abs(fft.dist.pmf - panjer.dist.pmf).sum()) <= 1e-8

    # crop-livestock has two gamma parts and an empty pool; per-obligor folds all 22 parts into the pool;
    # an unmixed crop sector is part 0 in the pool, beside livestock's gamma part
    @pytest.mark.parametrize("mode, unit, rates, calls", [
        ("crop-livestock", 1.0, None, 2),
        ("per-obligor", 2.0, None, 1),
        ("crop-livestock", 10.0, {"crop": (0.02, 0.0)}, 2),
    ])
    def test_one_transform_and_one_recursion_per_part(self, bundled_portfolio, monkeypatch, mode, unit, rates, calls):
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode, rates)), unit)
        grid = ar.auto_grid_size(banded)
        seen = []
        rfft, panjer = np.fft.rfft, ar.engine._panjer
        monkeypatch.setattr(np.fft, "rfft", lambda *a: seen.append("rfft") or rfft(*a))
        ar.loss_dist_fft(banded, grid)
        monkeypatch.setattr(np.fft, "rfft", rfft)
        monkeypatch.setattr(ar.engine, "_panjer", lambda *a: seen.append("panjer") or panjer(*a))
        ar.loss_dist_sector(banded, grid)
        assert seen == ["rfft"] * calls + ["panjer"] * calls


class TestLossDistribution:
    def test_negatives_clamped_and_bounded(self, bundled_banded, bundled_dist):
        assert float(bundled_dist.pmf.min()) >= 0.0
        raw = np.fft.ifft(np.exp(np.zeros(8, dtype=complex))).real  # exact point mass
        assert ar.LossDistribution(1.0, raw).pmf[0] == 1.0
        assert bundled_dist.pmf.sum() <= 1.0 + 1e-9
        assert bundled_dist.truncation_mass >= -1e-9

    def test_round_off_negative_reads_as_zero(self):
        dist = ar.LossDistribution(1.0, np.array([0.5, -1e-15, 0.25]))
        assert dist.pmf.tolist() == [0.5, 0.0, 0.25]
        assert dist.truncation_mass == 0.25

    def test_large_negative_entry_is_an_error(self):
        raw = np.array([0.5, -1e-10, 0.5])
        with pytest.raises(ModelError, match="clamp"):
            ar.LossDistribution(1.0, raw)

    def test_mass_above_one_is_an_error(self):
        with pytest.raises(ModelError, match=f"^{re.escape('pmf sums to 1.2 > 1 + 1e-9')}$"):
            ar.LossDistribution(1.0, np.array([0.6, 0.6]))

    @pytest.mark.parametrize("raw", [[0.5, math.nan, 0.5], [math.nan] * 3])
    def test_nan_pmf_is_an_error(self, raw):
        with pytest.raises(ModelError):
            ar.LossDistribution(1.0, np.array(raw))

    def test_truncation_mass_is_read_from_the_pmf(self):
        with pytest.raises(TypeError):
            ar.LossDistribution(1.0, np.array([0.5, 0.4]), 0.1)  # a tail bound is keyword-only
        with pytest.raises(TypeError):
            ar.LossDistribution(1.0, np.array([0.5, 0.4]), truncation_mass=0.1)

    def test_last_grid_point_past_the_largest_float_refused(self):
        # 17 units of 1e307 is 1.7e308, below the largest float; 18 units are inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert "inf" not in ar.LossDistribution(1e307, np.eye(1, 18)[0]).to_csv()
            message = "a 19-point loss grid overflows at unit 1e+307; use a smaller unit (--unit)"
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                ar.LossDistribution(1e307, np.eye(1, 19)[0])

    @pytest.mark.parametrize("backend", [ar.loss_dist_fft, ar.loss_dist_sector])
    def test_truncation_mass_bits_on_both_backends(self, bundled_banded, backend):
        dist = backend(bundled_banded, 100_000)
        assert dist.truncation_mass == 1.0 - float(dist.pmf.sum())
        assert dist.tail_bound == bundled_banded._cumulant.tail_bound(100_000)


class TestTailBound:
    BANDS_A = [(1, 0.5), (3, 0.9), (7, 0.35)]
    BANDS_B = [(2, 0.6), (5, 0.8)]
    CASES = {
        "poisson": [("a", 0.0, BANDS_A)],
        "gamma": [("a", 0.8, BANDS_A)],
        "mixed": [("a", 0.8, BANDS_A), ("b", 0.0, BANDS_B)],
    }

    # tails from 1e-2 down to 1e-17; deeper, the round-off of convolving sectors (~1e-15) swamps them
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_covers_the_exact_tail(self, case, n):
        banded = make_banded(self.CASES[case])
        exact = float(ar.loss_dist_sector(banded, 8 * n).pmf[n:].sum())  # P(S >= n)
        bound = ar.loss_dist_sector(banded, n).tail_bound
        assert exact <= bound <= 1.0
        assert ar.loss_dist_fft(banded, n).tail_bound == bound
        poisson_exact = float(ar.loss_dist_poisson(banded, 8 * n).pmf[n:].sum())
        assert poisson_exact <= ar.loss_dist_poisson(banded, n).tail_bound <= 1.0

    def test_cumulant_is_inf_from_the_gamma_pole_on(self):
        # one level at 1 with weight 1: d(t) = expm1(t), and beta = 1 puts the pole at t = log 2,
        # where beta * expm1(t) rounds to exactly 1
        cumulant = one_sector(1.0, [(1, 1.0)])._cumulant
        pole = math.log(2.0)
        assert float(cumulant.beta[0]) == 1.0 and cumulant.t_max == pole
        assert math.isfinite(cumulant(pole * (1.0 - 1e-12)))
        for t in (pole, pole * (1.0 + 1e-12), 2.0 * pole, 700.0):
            assert cumulant(t) == math.inf

    def test_cumulant_at_its_cap_is_inf_without_a_warning(self):
        # 20,000 unit exposures losing 0.9 each: one level at 1 with mu 18,000, so t_max is the cap
        # 700 and mu * expm1(700) overflows; the searches stay far below it and run as before
        _, banded = single_sector("".join(f"R{i},r{i},1,0.9,0,1,0\n" for i in range(20000)))
        cumulant = banded._cumulant
        assert cumulant.t_max == 700.0 and float(cumulant.mu.sum()) == pytest.approx(18000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cumulant(cumulant.t_max) == math.inf
            assert math.isfinite(cumulant.grid_need())
            assert 0.0 < cumulant.tail_bound(18500) < 1.0

    def test_pole_far_inside_the_bracket_matches_a_dense_scan(self):
        # weight 0.01 at level 1 and 0.99 at level 1000: the pole sits near log1p(1/beta) / 1000,
        # about 400 times below t_max = 700 / 1000, the closed-form bracket
        mu = np.array([0.01, 1.0])
        cumulant = one_sector(0.5, [(1, 0.01), (1000, 1000.0)])._cumulant
        alpha, beta = float(cumulant.alpha[0]), float(cumulant.beta[0])
        w = mu / mu.sum()

        def d(t):
            return w[0] * np.expm1(t) + w[1] * np.expm1(1000.0 * t)

        lo, hi = 0.0, cumulant.t_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if beta * d(mid) < 1.0 else (lo, mid)
        assert lo < cumulant.t_max / 300.0

        def scan_min(fn):
            t = np.linspace(0.0, lo, 200_001)[1:-1]
            i = int(np.argmin(fn(t)))
            return float(fn(np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 200_001)).min())

        def k(t):
            return -alpha * np.log1p(-beta * d(t))

        n = 20_000
        want = math.exp(scan_min(lambda t: k(t) - t * n))
        assert 0.0 < want < 1e-9
        assert cumulant.tail_bound(n) == pytest.approx(want, rel=1e-10, abs=0.0)
        log_inv_eps = -math.log(ar.engine.TAIL_EPS)
        want = scan_min(lambda t: (k(t) + log_inv_eps) / t)
        assert cumulant.grid_need() == pytest.approx(want, rel=1e-10, abs=0.0)

    # a zero-loss gamma sector keeps no level to bracket its pole, and beta = 1e-300 * 1e-30 rounds to 0
    @pytest.mark.parametrize("extra", [("z", 0.5, [(2, 0.0), (6, 0.0)]), ("g", 1e-150, [(1, 1e-30)])],
                             ids=["zero-loss", "beta-underflow"])
    def test_gamma_sector_without_a_pole_changes_nothing(self, extra):
        bands = self.CASES["mixed"]
        alone = make_banded(bands)._cumulant
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beside = make_banded(bands + [extra])._cumulant
            assert beside.t_max == alone.t_max
            assert beside.grid_need() == alone.grid_need()
            assert beside.tail_bound(32) == alone.tail_bound(32)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_hand_built_gamma_scale_with_no_bracket_refused(self):
        # cv**2 overflows to inf, so log1p(1 / beta) is 0: no t > 0 to search; band_exposures caps beta at 2**50
        with pytest.raises(ModelError, match="gamma scale inf leaves no t > 0"):
            ar.auto_grid_size(one_sector(1e155, [(1, 1.0)]))

    def test_zero_risk_portfolio(self):
        banded = poisson_sector([(1, 0.0), (5, 0.0)])
        assert ar.auto_grid_size(banded) == 16
        assert ar.loss_dist_fft(banded, 16).tail_bound == 0.0

    def test_auto_grid_above_limit_refused_before_allocating(self, bundled_portfolio):
        # exposures times e^10: the tail needs about 2**28 points at unit 10
        grown = ar.discount_exposures(bundled_portfolio, ar.DiscountSpec(-0.2, 50.0))
        banded = ar.band_exposures(ar.assign_sectors(grown, ar.SectorAssignment()), 10.0)
        with pytest.raises(ModelError, match="67108864-point limit; use a larger unit"):
            ar.auto_grid_size(banded)

    @pytest.mark.parametrize("backend", [ar.loss_dist_sector, ar.loss_dist_fft, ar.loss_dist_poisson])
    def test_explicit_grid_above_limit_refused(self, monkeypatch, backend):
        monkeypatch.setattr(ar.engine, "MAX_GRID", 1024)
        with pytest.raises(ModelError, match="1024-point limit"):
            backend(poisson_sector([(1, 1.0)]), 2048)


def is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestSmoothLength:
    def assert_least_smooth_at_or_above(self, need: int) -> None:
        got = ar.engine._smooth_length(need)
        assert got >= need and is_5_smooth(got)
        assert not any(is_5_smooth(k) for k in range(need, got))

    def test_least_5_smooth_at_or_above_every_small_need(self):
        for need in range(1, 2000):
            self.assert_least_smooth_at_or_above(need)

    @pytest.mark.parametrize("need", [10_007, 64_991, 77_833, 133_128, 2**26 - 1, 2**26])
    def test_least_5_smooth_at_or_above(self, need):
        self.assert_least_smooth_at_or_above(need)

    def test_convolution_length_is_5_smooth(self, monkeypatch):
        sizes = []
        real = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: sizes.append(n) or real(a, n))
        out = ar.engine._convolve_pmfs(np.ones(50), np.ones(26))
        assert sizes == [75, 75]  # 75 points needed: 3 * 5**2, where a power of two would take 128
        np.testing.assert_allclose(out, np.convolve(np.ones(50), np.ones(26))[:50], rtol=1e-12)


def _old_auto_grid(banded: ar.BandedPortfolio) -> int:
    """The grid rule the Chernoff bound replaced: a power of two >= 4 (mean + 20 stddev)."""
    mean, var = ar.analytic_moments(banded)
    need = max(4.0 * (mean + 20.0 * math.sqrt(var)) / banded.unit, 2.0 * (banded.max_v + 1), 16.0)
    return 1 << math.ceil(math.log2(need))


FROZEN_QUANTILES = json.loads((REPO_ROOT / "perfbench" / "eu22_quantiles.json").read_text())


# (sector mode, unit): the auto grid, the least 5-smooth length at or above its need
BUNDLED_AUTO_GRIDS = {
    ("single", 1.0): 135000,
    ("single", 10.0): 13500,
    ("crop-livestock", 1.0): 78125,
    ("crop-livestock", 2.0): 39366,
    ("crop-livestock", 10.0): 8000,
    ("per-obligor", 2.0): 57600,
    ("per-obligor", 10.0): 11520,
}


@pytest.mark.parametrize("mode, unit", BUNDLED_AUTO_GRIDS)
def test_auto_grid_on_bundled_configs(bundled_portfolio, mode, unit):
    banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), unit)
    grid = ar.auto_grid_size(banded)
    assert grid == BUNDLED_AUTO_GRIDS[mode, unit] and grid <= _old_auto_grid(banded)
    need = math.ceil(max(banded._cumulant.grid_need(), 2.0 * (banded.max_v + 1), 16.0))
    assert is_5_smooth(grid) and not any(is_5_smooth(k) for k in range(need, grid))
    fft = ar.loss_dist_fft(banded, grid)
    panjer = ar.loss_dist_sector(banded, grid)
    assert fft.tail_bound <= 1e-12 and panjer.tail_bound <= 1e-12
    # against 4x the grid, counting the reference's mass beyond this one
    ref = ar.loss_dist_fft(banded, 4 * grid).pmf
    assert 0.5 * (float(np.abs(fft.pmf - ref[:grid]).sum()) + float(ref[grid:].sum())) <= 1e-12
    assert 0.5 * float(np.abs(fft.pmf - panjer.pmf).sum()) <= 1e-8
    checked = 0
    for backend, dist in (("fft", fft), ("panjer", panjer)):
        frozen = FROZEN_QUANTILES.get(f"{mode}/{unit!r}/{backend}")
        if frozen is not None:
            assert [[lvl, ar.exceedance_quantile(dist, lvl)] for lvl, _ in frozen] == frozen
            checked += 1
    assert checked


@pytest.mark.parametrize("unit", [1.0, 10.0])
@pytest.mark.parametrize("mode", ["crop-livestock", "single", "per-obligor"])
def test_searches_minimize_the_public_cumulant(bundled_portfolio, mode, unit):
    """grid_need and tail_bound run the golden search over the same K(t) as cumulant(t), float for float."""
    banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), unit)
    cumulant = banded._cumulant
    log_inv_eps = -math.log(ar.engine.TAIL_EPS)
    need = ar.engine._golden_min(lambda t: (cumulant(t) + log_inv_eps) / t, cumulant.t_max)
    assert cumulant.grid_need() == need
    for n in (math.ceil(need) // 4, math.ceil(need)):
        bound = math.exp(min(0.0, ar.engine._golden_min(lambda t: cumulant(t) - t * n, cumulant.t_max)))
        assert cumulant.tail_bound(n) == bound


class TestLog1p:
    @staticmethod
    def points(lo: float, hi: float) -> np.ndarray:
        # moduli log-spaced over [lo, hi], arguments over the half plane Re z >= 0
        rng = np.random.default_rng(0)
        r = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), 2000)
        return r * np.exp(1j * rng.uniform(-math.pi / 2, math.pi / 2, r.size))

    def test_matches_log_away_from_zero(self):
        w = 1.0 + self.points(1e-2, 1e2)
        z = w - 1.0  # exact, so the reference log(w) carries no rounding of 1 + z
        ref = np.log(w)
        assert np.max(np.abs(ar.engine._log1p(z) - ref) / np.abs(ref)) <= 1e-14

    def test_matches_series_near_zero(self):
        z = self.points(1e-300, 1e-6)
        ref = z - z**2 / 2 + z**3 / 3 - z**4 / 4
        assert np.max(np.abs(ar.engine._log1p(z) - ref) / np.abs(ref)) <= 1e-14


def inline_quantile(dist: ar.LossDistribution, eps: float) -> float:
    """exceedance_quantile as it read before the survival was cached: its own 1 - cdf on every call."""
    if not 0.0 < eps < 1.0:
        raise ModelError(f"exceedance probability must be in (0, 1), got {eps}")
    if dist.truncation_mass >= eps or dist.tail_bound >= eps:
        raise ModelError(
            f"grid too small for requested tail: truncation mass {dist.truncation_mass:.3e}, "
            f"tail bound {dist.tail_bound:.3e}, level {eps}"
        )
    tail = 1.0 - dist.cdf
    if tail[-1] > eps:
        raise ModelError(
            f"exceedance probability {eps} is below the smallest the pmf resolves, {tail[-1]:.3e}"
        )
    x = int(np.argmax(tail <= eps))
    if tail[x] + dist.tail_bound > eps:
        raise ModelError(f"grid too small to certify: survival {tail[x]:.3e} at {x * dist.unit!r} "
                         f"plus tail bound {dist.tail_bound:.3e} exceeds level {eps}")
    return x * dist.unit


def inline_prob_exceeds(dist: ar.LossDistribution, amount: float) -> float:
    """prob_exceeds as it read before the survival was cached."""
    idx = int(math.floor(amount / dist.unit))
    if idx < 0:
        return 1.0
    return max(0.0, float(1.0 - dist.cdf[min(idx, dist.pmf.size - 1)]))


def random_dists(seed: int, count: int):
    """Seeded pmfs with round-off negatives the constructor clamps, runs of zeros, truncated mass
    (or a sum up to 1e-9 past 1, so the survival ends below 0) and, for half of them, a tail bound."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 300))
        pmf = rng.random(size) ** 4
        for _ in range(int(rng.integers(0, 4))):  # runs of zeros
            start = int(rng.integers(0, size))
            pmf[start : start + int(rng.integers(1, 40))] = 0.0
        if not pmf.sum() > 0.0:
            pmf[0] = 1.0
        mass = rng.choice([1.0, 1.0 + 1e-9 * rng.random(), 1.0 - 1e-12 * rng.random(), 1.0 - 0.2 * rng.random()])
        pmf *= mass / pmf.sum()
        negative = rng.random(size) < 0.1
        pmf[negative] = -1e-14 * rng.random(int(negative.sum()))
        tail_bound = float(rng.choice([0.0, 10.0 ** rng.uniform(-16, -2)]))
        unit = float(rng.choice([1.0, 0.1, 250.0]))
        try:
            yield ar.LossDistribution(unit, pmf, tail_bound=tail_bound)
        except ModelError:  # the negatives pushed the sum past 1 + 1e-9
            continue


class TestSurvival:
    @pytest.mark.parametrize("backend", [ar.loss_dist_fft, ar.loss_dist_sector])
    def test_sf_is_one_cached_array_of_one_minus_cdf(self, bundled_banded, backend):
        dist = backend(bundled_banded, ar.auto_grid_size(bundled_banded))
        sf = dist.sf
        assert dist.sf is sf and vars(dist)["sf"] is sf
        assert sf.dtype == np.float64 and sf.shape == dist.pmf.shape
        assert sf.tobytes() == (1.0 - dist.cdf).tobytes()

    def test_defined_in_engine_and_exported_as_before(self):
        assert ar.exceedance_quantile is ar.analytics.exceedance_quantile is ar.engine.exceedance_quantile
        assert ar.exceedance_quantile.__module__ == "agririsk.engine"

    def test_quantile_matches_the_inline_formula_on_random_pmfs(self):
        cases = outcomes = 0
        for dist in random_dists(seed=32, count=400):
            # levels at each survival value and either side of it, and at the truncated mass and tail bound
            tail = 1.0 - dist.cdf
            picks = np.random.default_rng(cases).choice(tail, size=min(tail.size, 6))
            levels = {0.0, 1.0, 1e-15, 0.5, dist.truncation_mass, dist.tail_bound, dist.tail_bound + 1e-3}
            levels.update(float(x) for p in picks.tolist() for x in (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)))
            for eps in sorted(levels):
                try:
                    want = inline_quantile(dist, eps)
                except ModelError as exc:
                    with pytest.raises(ModelError, match=f"^{re.escape(str(exc))}$"):
                        ar.engine.exceedance_quantile(dist, eps)
                else:
                    assert ar.engine.exceedance_quantile(dist, eps) == want
                    outcomes += 1
                cases += 1
        assert cases > 4000 and 1000 < outcomes < cases  # both returns and refusals are compared

    def test_prob_exceeds_reads_sf_below_on_and_past_the_grid(self):
        for dist in random_dists(seed=33, count=100):
            size, unit = dist.pmf.size, dist.unit
            grid = np.arange(size) * unit
            amounts = [-1e300, -unit, -1e-300, *grid, *(grid + 0.5 * unit), size * unit, 1e6 * unit, 1e300]
            for amount in amounts:
                idx = math.floor(amount / unit)
                from_sf = 1.0 if idx < 0 else max(0.0, float(dist.sf[min(idx, size - 1)]))
                assert dist.prob_exceeds(amount) == from_sf == inline_prob_exceeds(dist, amount)


class TestProbExceeds:
    def test_nonnegative_and_nonincreasing_past_the_grid(self, bundled_dist):
        top = bundled_dist.pmf.size * bundled_dist.unit
        amounts = np.concatenate([np.linspace(-1.0, top, 4001), [top + 0.5, 2 * top, 10 * top]])
        probs = np.array([bundled_dist.prob_exceeds(a) for a in amounts])
        assert probs.min() >= 0.0
        assert np.all(np.diff(probs) <= 0.0)


class TestConvolve:
    # _convolve_pmfs, which Panjer's split counts and loss_dist_sector's parts go through
    def point_mass(self, n: int, size: int = 16) -> np.ndarray:
        return np.eye(1, size, n)[0]

    def test_identity_element(self):
        lam = 1.3
        d = ar.loss_dist_poisson(poisson_sector([(1, lam)]), 32).pmf
        out = ar.engine._convolve_pmfs(self.point_mass(0, 32), d)
        np.testing.assert_allclose(out, d, rtol=0, atol=1e-15)

    def test_shift(self):
        out = ar.engine._convolve_pmfs(self.point_mass(2), self.point_mass(3))
        assert out[5] == pytest.approx(1.0, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_additivity(self):
        d1, d2, d3 = (ar.loss_dist_poisson(poisson_sector([(1, lam)]), 64).pmf for lam in (1.0, 2.0, 3.0))
        tv = 0.5 * np.abs(ar.engine._convolve_pmfs(d1, d2) - d3).sum()
        assert tv <= 1e-12

    def test_matches_direct_convolution_cut_to_the_longer(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(40), rng.random(23)
        np.testing.assert_allclose(ar.engine._convolve_pmfs(a, b), np.convolve(a, b)[:40], rtol=1e-12, atol=1e-13)

    def test_reduction_order_independent(self):
        parts = [ar.loss_dist_poisson(poisson_sector([(1, lam)]), 128).pmf for lam in (0.5, 1.1, 2.7)]
        conv = ar.engine._convolve_pmfs
        left = conv(conv(parts[0], parts[1]), parts[2])
        right = conv(parts[0], conv(parts[1], parts[2]))
        assert 0.5 * np.abs(left - right).sum() <= 1e-12


class TestSectorParams:
    @pytest.mark.parametrize("cv", [-0.5, math.nan, math.inf])
    def test_cv_outside_finite_nonnegative_refused(self, cv):
        with pytest.raises(ModelError, match="cv must be finite and >= 0"):
            one_sector(cv, [(1, 0.5)])

    def test_zero_cv_is_poisson(self):
        assert ar.SectorParams(0.0).is_poisson
        # an unmixed sector is pooled into the compound Poisson part: it has no gamma shape
        assert poisson_sector([(1, 0.5)])._cumulant.alpha.size == 0

    def test_alpha_is_inverse_square_cv(self):
        banded = one_sector(0.018 / 0.021, [(1, 0.5)])
        assert not banded.sectors[0].params.is_poisson
        (alpha,) = banded._cumulant.alpha.tolist()
        assert alpha == pytest.approx((0.021 / 0.018) ** 2, rel=1e-12)


class TestMomentConservation:
    def test_mean_matches_banded_expected_loss(self, bundled_banded, bundled_dist):
        assert bundled_dist.truncation_mass < 1e-9
        mom = ar.moments(bundled_dist)
        assert mom.mean == pytest.approx(bundled_banded.expected_loss, rel=1e-6)

    def test_one_sector_variance_formula(self):
        bands = [(1, 0.3), (4, 0.5), (9, 0.3)]
        banded = one_sector(0.024 / 0.03, bands, unit=2.0)
        dist = ar.loss_dist_fft(banded, ar.auto_grid_size(banded))
        assert dist.truncation_mass < 1e-9
        eps_total = sum(eps for _, eps in bands)
        expected_var = 4.0 * (
            sum(eps * v for v, eps in bands) + (0.024 / 0.03) ** 2 * eps_total**2
        )
        mom = ar.moments(dist)
        assert mom.variance == pytest.approx(expected_var, rel=1e-5)
        mean_money, var_money = ar.analytic_moments(banded)
        assert mom.mean == pytest.approx(mean_money, rel=1e-9)
        assert var_money == pytest.approx(expected_var, rel=1e-12)

    @pytest.mark.parametrize("unit", [1e155, 1e160])
    def test_analytic_moments_refused_where_unit_squared_overflows(self, bundled_portfolio, unit):
        banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment()), unit)
        message = f"model moments overflow at unit {unit!r}; use a smaller unit (--unit)"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            ar.analytic_moments(banded)

    def test_model_sums_do_not_move_with_the_openblas_thread_count(self, tmp_path, monkeypatch):
        """The benchmark's 20,000-obligor book, per-obligor at unit 10: analytic_moments, the pool's count,
        the grid need and a tail bound read the same on one OpenBLAS thread and on two.

        Their dots run over 20,000 gamma parts and levels; a BLAS dot that long splits across threads and
        rounds differently, so _Cumulant sums in numpy's own loop. A numpy not built on OpenBLAS ignores
        the variable, and the runs are then alike.
        """
        spec = importlib.util.spec_from_file_location("book", REPO_ROOT / "perfbench" / "book.py")
        book = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(book)
        (tmp_path / "book.csv").write_text(book.generate(ar.bundled_dataset_path(), 20000, 1), encoding="utf-8")
        script = (
            "import agririsk as ar\n"
            "port = ar.discount_exposures(ar.load_portfolio('book.csv'), ar.DiscountSpec(0.03, 1.0))\n"
            "banded = ar.band_exposures(ar.assign_sectors(port, ar.SectorAssignment('per-obligor')), 10.0)\n"
            "print(repr(ar.analytic_moments(banded)), repr(banded._cumulant.pool[3]))\n"
            "print(repr(banded._cumulant.grid_need()), repr(banded._cumulant.tail_bound(500)))\n"
        )
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            result = run_python(["-c", script], tmp_path)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestSerialization:
    def test_csv_columns_and_cdf(self):
        d = ar.loss_dist_poisson(poisson_sector([(1, 1.0)]), 8)
        lines = d.to_csv().strip().splitlines()
        assert lines[0] == "loss_units,loss_money,pmf,cdf"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("unit, size", [
        (3, 5000), (10**16, 5000), (2**70, 5000), (0.1, 5000), (1e300, 5000), (1.0, 5000), (10.0, 5000),
        (np.float64(10.0), 5000), (2.5, 5000),
        # whole float units whose last money value is just below 2**53, and at or just above it
        (2.0**40, 8192), (2.0**40, 8193), (1e12 + 1.0, 9008), (1e12 + 1.0, 9010),
    ])
    def test_csv_rows_match_the_f_string_writer(self, unit, size):
        # the unit is held as a float, an int one too, so each money cell is repr(n * float(unit)); a whole
        # float unit's money is written from ints below 2**53; the pmf's tail spans e-notation
        pmf = np.random.default_rng(11).random(size) ** 40
        d = ar.LossDistribution(unit=unit, pmf=pmf / pmf.sum())
        money = (n * d.unit for n in range(size))
        rows = (f"{n},{float(m) if isinstance(m, float) else m!r},{float(d.pmf[n])!r},{float(d.cdf[n])!r}\n"
                for n, m in enumerate(money))
        assert d.to_csv() == "loss_units,loss_money,pmf,cdf\n" + "".join(rows)

    def test_csv_peak_memory_and_rows(self):
        # 2**16 rows span several write chunks; the whole grid's row strings
        # must never be held at once next to the joined text
        pmf = np.random.default_rng(7).random(1 << 16)
        d = ar.LossDistribution(unit=0.1, pmf=pmf / pmf.sum())
        cdf = d.cdf
        tracemalloc.start()
        try:
            text = d.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)
        rows = (
            f"{n},{n * d.unit!r},{float(d.pmf[n])!r},{float(cdf[n])!r}\n"
            for n in range(d.pmf.size)
        )
        assert text == "loss_units,loss_money,pmf,cdf\n" + "".join(rows)

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import nbinom

import agririsk as ar
from agririsk.errors import InputError, ModelError

from conftest import REPO_ROOT, make_banded, single_sector

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
        assert band.mu == pytest.approx(24.96 / 801, rel=1e-9)

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
        with pytest.raises(ModelError, match=r"rho must lie in \(0, 1\), got 1.0"):
            ar.engine._panjer(np.array([1]), np.array([1.0]), (1e-18, 1e18), 64)

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


def scalar_panjer(vs, eps, cv, grid_size):
    """Reference (a, b, 0) recursion: one Python step per grid point, summing the levels v_j <= n."""
    mu = eps / vs
    if cv == 0.0:
        fa, fbv = np.zeros(vs.size), eps
        log_g0 = -float(mu.sum())
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
    }

    @pytest.mark.parametrize("cv", [0.0, 0.8])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scalar_recursion(self, case, cv):
        bands, grid = self.CASES[case]
        vs = np.array([v for v, e in bands if e > 0.0], dtype=np.int64)
        eps = np.array([e for v, e in bands if e > 0.0])
        gamma = (cv**-2, cv**2 * float((eps / vs).sum())) if cv else None
        expected = scalar_panjer(vs, eps, cv, grid)
        got = ar.engine._panjer(vs, eps, gamma, grid)
        assert got.shape == expected.shape
        live = expected >= 1e-300
        assert np.all(np.abs(got[live] - expected[live]) <= 1e-13 * expected[live])
        assert np.all(np.abs(got[~live]) <= 1e-300)

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

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ModelError, match="power of two"):
            ar.loss_dist_fft(poisson_sector([(1, 1.0)]), 100)

    def test_insufficient_padding_rejected(self):
        with pytest.raises(ModelError, match="at least 22"):
            ar.loss_dist_fft(poisson_sector([(10, 1.0)]), 16)

    def test_negatives_clamped_and_bounded(self, bundled_banded, bundled_dist):
        assert float(bundled_dist.pmf.min()) >= 0.0
        raw = np.fft.ifft(np.exp(np.zeros(8, dtype=complex))).real  # exact point mass
        assert ar.engine._finalize_pmf(raw, 1.0).pmf[0] == 1.0
        assert bundled_dist.pmf.sum() <= 1.0 + 1e-9
        assert bundled_dist.truncation_mass >= -1e-9

    def test_large_negative_entry_is_an_error(self):
        raw = np.array([0.5, -1e-10, 0.5])
        with pytest.raises(ModelError, match="clamp"):
            ar.engine._finalize_pmf(raw, 1.0)

    @pytest.mark.parametrize("raw", [[0.5, math.nan, 0.5], [math.nan] * 3])
    def test_nan_pmf_is_an_error(self, raw):
        with pytest.raises(ModelError):
            ar.engine._finalize_pmf(np.array(raw), 1.0)


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


def _old_auto_grid(banded: ar.BandedPortfolio) -> int:
    """The grid rule the Chernoff bound replaced: a power of two >= 4 (mean + 20 stddev)."""
    mean, var = ar.analytic_moments(banded)
    need = max(4.0 * (mean + 20.0 * math.sqrt(var)) / banded.unit, 2.0 * (banded.max_v + 1), 16.0)
    return 1 << math.ceil(math.log2(need))


FROZEN_QUANTILES = json.loads((REPO_ROOT / "perfbench" / "eu22_quantiles.json").read_text())


@pytest.mark.parametrize(
    "mode, unit",
    [
        ("single", 1.0),
        ("single", 10.0),
        ("crop-livestock", 1.0),
        ("crop-livestock", 2.0),
        ("crop-livestock", 10.0),
        ("per-obligor", 2.0),
        ("per-obligor", 10.0),
    ],
)
def test_auto_grid_on_bundled_configs(bundled_portfolio, mode, unit):
    banded = ar.band_exposures(ar.assign_sectors(bundled_portfolio, ar.SectorAssignment(mode)), unit)
    grid = ar.auto_grid_size(banded)
    assert grid <= _old_auto_grid(banded)
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


class TestSerialization:
    def test_csv_columns_and_cdf(self):
        d = ar.loss_dist_poisson(poisson_sector([(1, 1.0)]), 8)
        lines = d.to_csv().strip().splitlines()
        assert lines[0] == "loss_units,loss_money,pmf,cdf"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_csv_peak_memory_and_rows(self):
        # 2**16 rows span several write chunks; the whole grid's row strings
        # must never be held at once next to the joined text
        pmf = np.random.default_rng(7).random(1 << 16)
        d = ar.LossDistribution(unit=0.1, pmf=pmf / pmf.sum(), truncation_mass=0.0)
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

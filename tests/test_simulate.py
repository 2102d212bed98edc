import dataclasses
import importlib
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, nbinom

import agririsk as ar
from agririsk.engine import _MAX_GAMMA_SCALE
from agririsk.errors import InputError, ModelError
from agririsk.simulate import BLOCK_VARIATES, CHUNK_DRAWS, _alias_table, _count_first, _pick, _quantile_band

from conftest import HEADER, make_banded, raw_parts, single_sector
from test_engine import poisson_sector


def sample_distribution(dist: ar.LossDistribution, n_draws: int, seed: int) -> ar.EmpiricalDistribution:
    """Inverse-CDF draws from an analytic distribution, to compare it with itself."""
    rng = np.random.default_rng(seed)
    idx = np.minimum(np.searchsorted(dist.cdf, rng.random(n_draws), side="right"), dist.pmf.size - 1)
    return ar.EmpiricalDistribution(samples=np.sort(idx * dist.unit), mode="inverse-cdf", seed=seed)


# part 0, a multi-level gamma part, and single-level gamma parts of mu 1 with beta 1/4 and 1 (both folded
# into the pool) and 9/4 (a part of its own)
POOL_BOOK = [
    ("p", 0.0, [(1, 0.5), (4, 1.0)]),
    ("m", 0.7, [(2, 0.6), (5, 0.8)]),
    ("low", 0.5, [(3, 3.0)]),
    ("one", 1.0, [(2, 2.0)]),
    ("high", 1.5, [(3, 3.0)]),
]


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

    def test_banded_loss_past_the_largest_float_refused(self):
        # one obligor of 1.5e308 at unit 1e306: two sectors at level 75, so three defaults are 225 units, past
        # 1.79e308 in money; the multiply by the unit made them inf with a RuntimeWarning. Both sectors fold
        # into the pool, and seed 0's 25 draws reach three defaults but not four
        portfolio = ar.parse_portfolio(HEADER.rsplit(",", 1)[0] + "\nA,a,1.5e308,0.5,0.1,0.5,0.5\n")
        sectored = ar.assign_sectors(portfolio, ar.SectorAssignment("crop-livestock", None))
        banded = ar.band_exposures(sectored, 1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "a sampled loss of 225 units overflows at unit 1e+306; use a smaller unit (--unit)"
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                ar.simulate(banded, ar.SimConfig(n_draws=25, seed=0))
            # each bernoulli-exact sample is at most the total exposure, which the portfolio keeps finite
            exact = ar.simulate(banded, ar.SimConfig(n_draws=20, seed=0, mode="bernoulli-exact"), sectored)
            assert exact.samples[-1] == 1.5e308

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
        # bernoulli-exact scales each sector by its part's shape; per-obligor on the bundled data, one
        # sector's scalar cv**-2 differs from numpy's in the last bit. poisson-banded scales only the parts
        # outside the pool: on POOL_BOOK, its multi-level part and its single-level part with beta > 1
        if mode == "bernoulli-exact":
            sectored = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor"))
            banded = ar.band_exposures(sectored, 10.0)
            alpha = banded._cumulant.alpha.tolist()
            assert len(alpha) == 22
        else:
            sectored, banded = None, make_banded(POOL_BOOK)
            c = banded._cumulant
            alpha = c.alpha[~c.folded].tolist()
            assert len(alpha) == 2
        module = importlib.import_module("agririsk.simulate")
        shapes, draw = [], module._gamma_scalings

        def recorded(rng, alpha, size):
            shapes.append(alpha)
            return draw(rng, alpha, size)

        monkeypatch.setattr(module, "_gamma_scalings", recorded)
        ar.simulate(banded, ar.SimConfig(n_draws=10, seed=1, mode=mode), sectored)
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

    def test_bundled_bernoulli_chunk_memory_is_bounded(self, bundled_run):
        # one full chunk over two 22-sub sectors; a (draws x subs) float matrix of one sector is 11.5 MB
        cfg = ar.SimConfig(n_draws=CHUNK_DRAWS, seed=7, mode="bernoulli-exact")
        tracemalloc.start()
        try:
            ar.simulate(bundled_run.banded, cfg, bundled_run.sectored)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("mode", ["poisson-banded", "bernoulli-exact"])
    @pytest.mark.parametrize("cols, n_draws, block_variates", [
        (1, CHUNK_DRAWS + 4096, BLOCK_VARIATES), (22, CHUNK_DRAWS + 4096, BLOCK_VARIATES),
        (64, CHUNK_DRAWS + 4096, BLOCK_VARIATES), (1100, 4096, BLOCK_VARIATES), (1100, 4096, 1000)])
    def test_blocks_are_bounded(self, monkeypatch, mode, cols, n_draws, block_variates):
        # one gamma sector drawn over cols columns: bands with mu = 2 (per band) or sub-exposures;
        # at 1000 variates a block holds less than one row of 1100 columns. cv 1 gives one band the
        # gamma scale beta = 2 > 1, so it stays a part of its own and is not folded into the pool
        if mode == "poisson-banded":
            sectored, banded = None, make_banded([("g", 1.0, [(v, 2.0 * v) for v in range(1, cols + 1)])])
            assert not banded._cumulant.folded.any()
            assert not _count_first(_part_mu(banded))
        else:
            sectored, banded = single_sector("".join(f"O{i},O{i},{1 + i},0.02,0.01,1,0\n" for i in range(cols)))
        module = importlib.import_module("agririsk.simulate")
        blocks, rate_blocks = {}, module._rate_blocks

        def recorded(m, cols):
            got = rate_blocks(m, cols)
            blocks.setdefault(m, []).append((cols, got))  # keyed by chunk: chunks may run on several threads
            return got

        monkeypatch.setattr(module, "BLOCK_VARIATES", block_variates)
        monkeypatch.setattr(module, "_rate_blocks", recorded)
        ar.simulate(banded, ar.SimConfig(n_draws=n_draws, seed=3, mode=mode), sectored)
        chunks = [CHUNK_DRAWS, 4096] if n_draws > CHUNK_DRAWS else [n_draws]
        assert sorted(blocks) == sorted(chunks)
        rows = max(1, block_variates // cols)
        for m, calls in blocks.items():
            ((got_cols, got),) = calls
            assert got_cols == cols
            assert [rs.start for rs in got] == [0] + [rs.stop for rs in got[:-1]] and got[-1].stop == m
            assert all(rs.stop - rs.start == rows for rs in got[:-1]) and got[-1].stop - got[-1].start <= rows
            assert rows * cols <= block_variates or rows == 1
        assert len(blocks[chunks[0]][0][1]) > 1 or cols == 1

    @pytest.mark.parametrize("mode", ["poisson-banded", "bernoulli-exact"])
    def test_blocked_draws_match_one_block(self, bundled_run, monkeypatch, mode):
        sectored, banded = bundled_run.sectored, bundled_run.banded
        cfg = ar.SimConfig(n_draws=3000, seed=13, mode=mode)
        whole = ar.simulate(banded, cfg, sectored)
        # the module, not the simulate function that the package exports under its name
        monkeypatch.setattr(importlib.import_module("agririsk.simulate"), "BLOCK_VARIATES", 1000)
        blocked = ar.simulate(banded, cfg, sectored)
        np.testing.assert_array_equal(blocked.samples, whole.samples)
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
        pooled, gamma_part = raw_parts(banded)
        assert (pooled[0].tolist(), pooled[3]) == ([1, 2, 3, 5, 7], None)
        assert (gamma_part[0].tolist(), gamma_part[3][0]) == ([1, 4], banded._cumulant.alpha[0])
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
        np.testing.assert_array_equal(blocked.samples, whole.samples)
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

    def test_per_band_chunk_memory_is_bounded(self, monkeypatch):
        # one full chunk over 64 bands is 4.2M variates drawn in several blocks: the rates and the
        # int64 counts take 16 bytes a variate, and a float64 copy of the counts would make it 24.
        # Two chunks on two threads hold two blocks at once.
        banded = make_banded([("g", 0.3, [(v, 200.0 / 64 * v) for v in range(1, 65)])])
        assert not _count_first(_part_mu(banded))
        assert CHUNK_DRAWS * 64 > 3 * BLOCK_VARIATES
        monkeypatch.setattr(importlib.import_module("agririsk.simulate"), "_cpu_count", lambda: 2)
        ar.simulate(banded, ar.SimConfig(n_draws=10, seed=7))  # numpy.random's lazy imports, counted once
        for n_chunks in (1, 2):
            tracemalloc.start()
            try:
                ar.simulate(banded, ar.SimConfig(n_draws=n_chunks * CHUNK_DRAWS, seed=7))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < CHUNK_DRAWS * 64 * 20
            # per block in flight, one per thread: 20 bytes a variate and its chunk's gamma scalings;
            # and the float64 losses
            in_flight = min(2, n_chunks)
            assert peak < in_flight * (BLOCK_VARIATES * 20 + CHUNK_DRAWS * 8) + n_chunks * CHUNK_DRAWS * 8

    @pytest.mark.parametrize("bands, count_first", SIDES)
    def test_gamma_scale_at_the_limit_draws(self, bands, count_first):
        # the sector's gamma scale cv**2 * sum(mu) just under the largest band_exposures accepts
        total = sum(eps / v for v, eps in bands)
        cv = math.sqrt(0.99 * _MAX_GAMMA_SCALE / total)
        banded = make_banded([("g", cv, bands)])
        assert _count_first(_part_mu(banded)) is count_first
        emp = ar.simulate(banded, ar.SimConfig(n_draws=100_000, seed=5))
        assert np.all(np.isfinite(emp.samples)) and emp.samples[0] >= 0.0


def per_part_reference(banded: ar.BandedPortfolio, n: int, seed: int) -> np.ndarray:
    """Losses in units drawn part by part with numpy alone: a mean-1 gamma scaling G for each gamma part,
    then one Poisson count per level at mean mu * G, with no part folded and no alias table."""
    rng = np.random.default_rng(seed)
    loss = np.zeros(n, np.int64)
    for vs, _, mu, gamma in raw_parts(banded):
        scale = np.ones(n) if gamma is None else rng.gamma(gamma[0], 1.0 / gamma[0], n)
        loss += (rng.poisson(np.outer(scale, mu)) * vs).sum(axis=1)
    return loss.astype(float)


def homogeneity_p(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-square p-value that two samples of whole numbers share one law: runs of values, left to right,
    are merged into cells of at least 40 samples of both together."""
    size = int(max(a.max(), b.max())) + 1
    counts = np.stack([np.bincount(x.astype(np.int64), minlength=size) for x in (a, b)])
    cells, cell = [], np.zeros(2)
    for column in counts.T:
        cell = cell + column
        if cell.sum() >= 40:
            cells.append(cell)
            cell = np.zeros(2)
    cells[-1] = cells[-1] + cell
    return float(chi2_contingency(np.array(cells).T).pvalue)


class TestPooledDraws:
    """poisson-banded draws the engine's pool; these checks rest on neither the folding code nor the series."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pooled_draws_match_per_part_draws(self, seed):
        banded = make_banded(POOL_BOOK)
        c = banded._cumulant
        assert c.beta[1:].tolist() == [0.25, 1.0, 2.25] and c.folded.tolist() == [False, True, True, False]
        n = 200_000
        pooled = ar.simulate(banded, ar.SimConfig(n_draws=n, seed=seed)).samples
        reference = per_part_reference(banded, n, 1000 + seed)
        assert homogeneity_p(pooled, reference) > 1e-3

    @pytest.mark.parametrize("cv, eps", [(0.5, 6.0), (1.0, 3.0)])
    def test_folded_count_is_negative_binomial(self, cv, eps):
        # one part at level 3 with mu eps / 3: alpha 4 and beta 1/2, or alpha 1 and beta 1, drawn from the pool
        banded = make_banded([("f", cv, [(3, eps)])])
        c = banded._cumulant
        alpha, beta = float(c.alpha[0]), float(c.beta[0])
        assert c.folded.all() and not list(c.parts())
        n = 200_000
        count = (ar.simulate(banded, ar.SimConfig(n_draws=n, seed=47)).samples / 3.0).astype(np.int64)
        p = 1.0 / (1.0 + beta)
        top = int(nbinom.isf(1e-4, alpha, p))  # the tail from here on is one cell of about 20 expected draws
        observed = np.bincount(np.minimum(count, top), minlength=top + 1)
        expected = n * np.append(nbinom.pmf(np.arange(top), alpha, p), nbinom.sf(top - 1, alpha, p))
        assert chisquare(observed, expected).pvalue > 1e-3


def two_sectors(rows: str) -> tuple[ar.SectoredPortfolio, ar.BandedPortfolio]:
    """Sectored and banded crop-livestock views of portfolio CSV rows, without expected_loss."""
    portfolio = ar.parse_portfolio(HEADER.rsplit(",", 1)[0] + "\n" + rows)
    sectored = ar.assign_sectors(portfolio, ar.SectorAssignment("crop-livestock"))
    return sectored, ar.band_exposures(sectored, 1.0)


class TestThreads:
    @pytest.mark.parametrize("mode", ar.portfolio.MC_MODES)
    def test_samples_do_not_depend_on_the_worker_count(self, bundled_portfolio, monkeypatch, mode):
        # a count-first crop sector and a per-band livestock one whose 0.9 rates clamp under
        # scalings above 1.12, over three chunks, the last of 17 draws; then the bundled per-obligor
        # book, whose 22 sectors all fold into the pool
        sectored, banded = two_sectors(
            "".join(f"C{i},C{i},{10 + i},0.02,0.01,1,0\n" for i in range(8))
            + "".join(f"L{i},L{i},{5 + 3 * i},0.9,0.9,0,1\n" for i in range(3)))
        assert [_count_first(mu) for _, _, mu, _ in raw_parts(banded)] == [True, False]
        per_obligor = ar.assign_sectors(bundled_portfolio, ar.SectorAssignment("per-obligor"))
        books = [(sectored, banded), (per_obligor, ar.band_exposures(per_obligor, 1.0))]
        assert books[1][1]._cumulant.folded.all()
        module = importlib.import_module("agririsk.simulate")
        cfg = ar.SimConfig(n_draws=2 * CHUNK_DRAWS + 17, seed=29, mode=mode)
        threads, draw_chunk = set(), module._draw_chunk

        def recorded(*args):
            threads.add(threading.get_ident())
            return draw_chunk(*args)

        monkeypatch.setattr(module, "_draw_chunk", recorded)
        clamped = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches than the default 5 ms allows
        try:
            for sectored, banded in books:
                runs = []
                for workers in (1, 2, 3):
                    threads.clear()
                    monkeypatch.setattr(module, "_cpu_count", lambda workers=workers: workers)
                    runs.append(ar.simulate(banded, cfg, sectored))
                    assert len(threads) == workers and threading.get_ident() in threads
                for run in runs[1:]:
                    np.testing.assert_array_equal(run.samples, runs[0].samples)
                    assert run.clamp_count == runs[0].clamp_count
                clamped.append(runs[0].clamp_count)
        finally:
            sys.setswitchinterval(interval)
        assert (clamped[0] > 0) is (mode == "bernoulli-exact")

    def test_one_chunk_is_drawn_by_the_caller(self, bundled_banded, monkeypatch):
        module = importlib.import_module("agririsk.simulate")
        threads, draw_chunk = [], module._draw_chunk

        def recorded(*args):
            threads.append(threading.get_ident())
            return draw_chunk(*args)

        monkeypatch.setattr(module, "_draw_chunk", recorded)
        monkeypatch.setattr(module, "_cpu_count", lambda: 4)
        ar.simulate(bundled_banded, ar.SimConfig(n_draws=CHUNK_DRAWS, seed=1))
        assert threads == [threading.get_ident()]

    def test_a_thread_that_cannot_start_raises_from_simulate(self, bundled_banded, monkeypatch):
        # each share waits until every share has a thread; one that could not start must not leave them waiting
        from concurrent.futures import ThreadPoolExecutor

        submit, calls, outcome = ThreadPoolExecutor.submit, [], []

        def failing(pool, *args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("can't start new thread")
            return submit(pool, *args)

        def run():
            try:
                ar.simulate(bundled_banded, ar.SimConfig(n_draws=2 * CHUNK_DRAWS + 17, seed=1))
            except RuntimeError as exc:
                outcome.append(str(exc))

        monkeypatch.setattr(ThreadPoolExecutor, "submit", failing)
        monkeypatch.setattr(importlib.import_module("agririsk.simulate"), "_cpu_count", lambda: 3)
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(30)
        assert not thread.is_alive() and outcome == ["can't start new thread"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_chunk_raises_from_simulate(self, bundled_banded, monkeypatch, workers):
        module = importlib.import_module("agririsk.simulate")
        draw = module._gamma_scalings

        def failing(rng, alpha, size):
            if size == 17:  # the second chunk, a pool thread's when there are two workers
                raise RuntimeError("chunk failed")
            return draw(rng, alpha, size)

        monkeypatch.setattr(module, "_gamma_scalings", failing)
        monkeypatch.setattr(module, "_cpu_count", lambda: workers)
        with pytest.raises(RuntimeError, match="chunk failed"):
            ar.simulate(bundled_banded, ar.SimConfig(n_draws=CHUNK_DRAWS + 17, seed=1))


class _Uniforms:
    """A stand-in generator whose random() returns one fixed value."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size: int) -> np.ndarray:
        return np.full(size, self.u)


class TestAliasTable:
    @pytest.mark.parametrize("mu", [
        [0.5], [1.0, 1.0, 1.0], [3.0, 1e-12, 1.0, 1e-300], [1.0] * 7 + [50.0],
        np.random.default_rng(3).random(2000).tolist(),
    ])
    def test_each_column_receives_its_share(self, mu):
        mu = np.array(mu)
        keep, alias = _alias_table(mu)
        assert np.all((keep >= 0.0) & (keep <= 1.0))
        received = keep.copy()
        np.add.at(received, alias, 1.0 - keep)
        np.testing.assert_allclose(received, mu * (mu.size / mu.sum()), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("size", [1, 3, 7, 22, 2000])
    def test_a_pick_stays_in_range(self, size):
        # the largest uniform below 1 lands in the last column, 0 in the first
        keep, alias = np.full(size, 0.5), np.arange(size)[::-1].copy()
        assert _pick(_Uniforms(0.0), 1, keep, alias).tolist() == [0]
        assert _pick(_Uniforms(np.nextafter(1.0, 0.0)), 1, keep, alias).tolist() == [0]
        assert _pick(_Uniforms(np.nextafter(1.0, 0.0)), 1, np.ones(size), alias).tolist() == [size - 1]


def joined_samples_csv(samples: np.ndarray) -> str:
    """The --dump-samples text as simulate wrote it before: one repr string per sample, joined at once."""
    return "\n".join(["loss"] + [repr(x) for x in samples.tolist()]) + "\n"


class TestDumpSamples:
    def test_csv_peak_memory_and_bytes(self):
        # 2**18 whole-unit samples span 16 write chunks; one repr string per sample, all held at once
        # before the join, peaked near 13x the text
        samples = np.sort(np.random.default_rng(5).integers(0, 20_000, 1 << 18).astype(float))
        emp = ar.EmpiricalDistribution(samples)
        tracemalloc.start()
        try:
            text = emp.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)
        assert text == joined_samples_csv(samples)

    @pytest.mark.parametrize("n", [0, 1, 1 << 14, (1 << 14) + 1])
    def test_bytes_at_chunk_edges(self, n):
        samples = np.sort(np.random.default_rng(n).random(n) * 1e4)
        assert ar.EmpiricalDistribution(samples).to_csv() == joined_samples_csv(samples)

    def test_samples_of_every_size_and_sign(self):
        # the array formatter's layouts: 0.000ddd, e-notation both ways, -0.0, subnormals, 17 digits
        rng = np.random.default_rng(9)
        samples = np.sort(np.concatenate((rng.choice([-1.0, 1.0], 9000) * np.exp(rng.uniform(-700, 700, 9000)),
                                          [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4])))
        assert ar.EmpiricalDistribution(samples).to_csv() == joined_samples_csv(samples)

    @pytest.mark.parametrize("samples, shown", [([0.0, 1.0, math.inf], "inf"), ([-math.inf, 0.0], "-inf")])
    def test_sample_that_is_not_finite_refused(self, samples, shown):
        # the dump wrote inf; no simulate run reaches it, since a sample past the largest float is refused
        message = f"cannot write a number that is not finite: {shown}"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            ar.EmpiricalDistribution(np.array(samples)).to_csv()


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

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_level_outside_open_interval_rejected(self, eps):
        emp = ar.EmpiricalDistribution(samples=np.arange(4, dtype=float))
        message = f"exceedance probability must be in (0, 1), got {eps}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ar.empirical_exceedance_quantile(emp, eps)

    def test_unsorted_sample_rejected(self):
        with pytest.raises(InputError, match="sorted"):
            ar.EmpiricalDistribution(samples=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("samples", [[math.inf, 1.0], [0.0, -math.inf], [1.0, math.inf, 2.0]])
    def test_unsorted_infinite_sample_rejected(self, samples):
        with pytest.raises(InputError, match="sorted"):
            ar.EmpiricalDistribution(samples=np.array(samples))

    def test_sorted_infinite_sample_accepted(self):
        emp = ar.EmpiricalDistribution(samples=np.array([-math.inf, 0.0, math.inf, math.inf]))
        assert emp.n_draws == 4


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

    def test_summary_needs_its_levels(self):
        # a default of three levels disagreed with the pipeline's seven
        with pytest.raises(TypeError):
            ar.EmpiricalDistribution(np.arange(4.0)).summary()

    def test_unresolvable_band_edge_does_not_depend_on_the_grid(self, bundled_run):
        # at 2000 draws the pmf cannot resolve eps - 3 se at the 0.0025 level, so its band is
        # one-sided, and the same samples must give the same rows on a larger grid
        emp = ar.simulate(bundled_run.banded, ar.SimConfig(n_draws=2000, seed=1))
        se = math.sqrt(0.0025 * 0.9975 / 2000)
        lo, hi = _quantile_band(bundled_run.dist, 0.0025, se)
        assert hi is None and bundled_run.dist.pmf.size == 78_125
        rows = ar.compare(bundled_run.dist, emp, bundled_run.levels).rows
        assert rows == ar.compare(ar.run_pipeline(grid=100_000).dist, emp, bundled_run.levels).rows
        deep = rows[bundled_run.levels.index(0.0025)]
        assert deep.stderr_loss == (deep.analytic_quantile - lo) / 3.0

    @pytest.mark.parametrize("loss, flagged", [(0.0, True), (1e9, False)])
    def test_one_sided_band_flags_only_below_its_lower_edge(self, bundled_dist, loss, flagged):
        # at 2000 draws eps - 3 se is below 0 at the 0.0025 level
        emp = ar.EmpiricalDistribution(samples=np.full(2000, loss))
        (row,) = ar.compare(bundled_dist, emp, [0.0025]).rows
        assert row.flagged is flagged

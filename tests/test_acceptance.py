"""Acceptance gate: every shipped-quality criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import functools
import math
import time

import numpy as np
from scipy.stats import nbinom

import agririsk as ar

from conftest import REPO_ROOT, make_banded, run_cli

LEVELS7 = (0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001)


def report(criterion: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {criterion}: FAIL")
                raise
            print(f"[acceptance] {criterion}: PASS")
            return out

        return run

    return wrap


@report("1 expected-loss reproduction (total +-0.5, per country +-0.3, <1s)")
def test_criterion_1_expected_loss():
    t0 = time.perf_counter()
    portfolio = ar.load_portfolio(REPO_ROOT / "data" / "table1_eu22.csv")
    assert abs(portfolio.total_expected_loss - 1525.03) <= 0.5
    declared = portfolio.expected_loss_declared
    assert not np.isnan(declared).any()
    assert np.all(np.abs(portfolio.exposure * portfolio.mean_loss_rate - declared) <= 0.3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    # the repo-level file and the packaged copy must be the same data
    assert (REPO_ROOT / "data" / "table1_eu22.csv").read_bytes() == ar.bundled_dataset_path().read_bytes()


@report("2 contribution additivity at {0.1, 0.05, 0.01} to 1e-9 relative (<5s)")
def test_criterion_2_additivity():
    t0 = time.perf_counter()
    run = ar.run_pipeline()
    banded, dist = run.banded, run.dist
    table = ar.risk_contributions(banded, dist, [0.1, 0.05, 0.01])
    for column, level in enumerate(table.levels):
        var_q = ar.exceedance_quantile(dist, level)
        column_sum = sum(row.contributions[column] for row in table.rows)
        assert table.totals[column] == var_q
        assert abs(column_sum - var_q) / var_q <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


@report("3 negative-binomial closed form, sup <= 1e-10 over alpha x rho grid, n <= 200")
def test_criterion_3_negative_binomial_oracle():
    grid = 1024
    for alpha in (0.5, 2.0, 10.0):
        for rho in (0.1, 0.5, 0.9):
            # cv**-2 = alpha; one level-1 band of count alpha*beta, beta = rho/(1-rho)
            banded = make_banded([("s", alpha**-0.5, [(1, alpha * rho / (1.0 - rho))])])
            expected = nbinom.pmf(np.arange(201), alpha, 1.0 - rho)
            for dist in (ar.loss_dist_sector(banded, grid), ar.loss_dist_fft(banded, grid)):
                assert float(np.abs(dist.pmf[:201] - expected).max()) <= 1e-10


@report("4 Panjer vs FFT total variation <= 1e-8 (bundled + 50 random portfolios)")
def test_criterion_4_backend_equivalence():
    run = ar.run_pipeline()
    banded, dist_fft = run.banded, run.dist
    dist_panjer = ar.loss_dist_sector(banded, dist_fft.pmf.size)
    assert 0.5 * float(np.abs(dist_fft.pmf - dist_panjer.pmf).sum()) <= 1e-8

    rng = np.random.default_rng(20110505)
    modes = ("single", "crop-livestock", "per-obligor")
    for case in range(50):
        n_obligors = int(rng.integers(1, 11))
        rows = []  # per obligor, in Portfolio's column order; the draws keep their order, so the same 50 cases run
        for i in range(n_obligors):
            crop = float(rng.uniform(0.0, 1.0))
            rate = float(rng.uniform(0.01, 0.3))
            # rate volatility up to 4x the mean, on par with the bundled data
            stddev = rate * float(rng.uniform(0.0, 4.0)) if rng.random() > 0.2 else 0.0
            rows.append((float(rng.uniform(2.0, 60.0)), rate, min(stddev, 1.0), crop, round(1.0 - crop, 6)))
        ids = tuple(f"O{i}" for i in range(n_obligors))
        names = tuple(f"Obligor {i}" for i in range(n_obligors))
        portfolio = ar.Portfolio(ids, names, *zip(*rows), [math.nan] * n_obligors)
        sectored = ar.assign_sectors(portfolio, ar.SectorAssignment(modes[case % 3]))
        banded = ar.band_exposures(sectored, float(rng.choice([0.5, 1.0, 2.0])))
        grid = ar.auto_grid_size(banded)
        tv = 0.5 * float(
            np.abs(ar.loss_dist_fft(banded, grid).pmf - ar.loss_dist_sector(banded, grid).pmf).sum()
        )
        assert tv <= 1e-8, f"case {case}: TV {tv:.3e}"


@report("5 Monte Carlo agreement at 1e6 draws: zero flags at {0.1, 0.05, 0.01} (<60s)")
def test_criterion_5_monte_carlo():
    t0 = time.perf_counter()
    run = ar.run_pipeline()
    banded, dist = run.banded, run.dist
    empirical = ar.simulate(banded, ar.SimConfig(n_draws=1_000_000, seed=20110505))
    comparison = ar.compare(dist, empirical, [0.1, 0.05, 0.01])
    assert comparison.flag_count == 0
    _, variance = ar.analytic_moments(banded)
    mean_se = (variance / empirical.n_draws) ** 0.5
    assert abs(empirical.mean - banded.expected_loss) <= 4.0 * mean_se
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


@report("6 Poisson limit at sigma = 1e-6: total variation < 1e-4")
def test_criterion_6_poisson_limit():
    portfolio = ar.load_portfolio(ar.bundled_dataset_path())
    weighted_mean = portfolio.total_expected_loss / portfolio.total_exposure
    sectored = ar.assign_sectors(
        portfolio, ar.SectorAssignment("single", {"portfolio": (weighted_mean, 1e-6)})
    )
    banded = ar.band_exposures(sectored, 1.0)
    grid = ar.auto_grid_size(banded)
    mixed = ar.loss_dist_sector(banded, grid)
    poisson = ar.loss_dist_poisson(banded, grid)
    assert 0.5 * float(np.abs(mixed.pmf - poisson.pmf).sum()) < 1e-4


@report("7 mean within 1e-6 rel, one-sector variance within 1e-5 rel")
def test_criterion_7_moment_conservation():
    run = ar.run_pipeline()
    banded, dist = run.banded, run.dist
    assert dist.truncation_mass < 1e-9
    mom = ar.moments(dist)
    assert abs(mom.mean - banded.expected_loss) / banded.expected_loss <= 1e-6

    run1 = ar.run_pipeline(sector_mode="single")
    banded1, dist1 = run1.banded, run1.dist
    assert dist1.truncation_mass < 1e-9
    sector = banded1.sectors[0]
    eps_total = sum(b.epsilon for b in sector.bands)
    var_formula = banded1.unit**2 * (
        sum(b.epsilon * b.v for b in sector.bands) + sector.params.cv**2 * eps_total**2
    )
    mom1 = ar.moments(dist1)
    assert abs(mom1.variance - var_formula) / var_formula <= 1e-5


@report("8 tail property gate + committed reproduction attempt")
def test_criterion_8_tail_properties_and_reproduction_report():
    run = ar.run_pipeline()
    banded, dist = run.banded, run.dist
    quantiles = [ar.exceedance_quantile(dist, eps) for eps in LEVELS7]
    # smaller exceedance level -> larger or equal loss, strict where stated
    assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))
    q = dict(zip(LEVELS7, quantiles))
    mean = ar.moments(dist).mean
    assert q[0.001] > q[0.01] > q[0.1] > mean

    md = REPO_ROOT / "reports" / "tail_reproduction.md"
    assert md.exists(), "reproduction attempt must be committed"
    text = md.read_text(encoding="utf-8")
    assert "## Configuration" in text
    for value in ("6913.91", "9424.59", "11824.41", "14389.19", "17888.45", "20418.58", "23259.33"):
        assert value in text
    assert (REPO_ROOT / "reports" / "tail_reproduction.json").exists()


@report("9 CLI determinism: byte-identical outputs across consecutive runs")
def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["validate"],
        ["analyze", "--unit", "10"],
        ["dist", "--unit", "10"],
        ["simulate", "--unit", "10", "--n-draws", "50000", "--seed", "42"],
    ]
    for command in commands:
        outputs = []
        for run_dir in ("first", "second"):
            cwd = tmp_path / command[0] / run_dir
            cwd.mkdir(parents=True)
            result = run_cli(command, cwd)
            assert result.returncode == 0, result.stderr
            files = {
                p.name: p.read_bytes() for p in sorted((cwd / "out").glob("*")) if p.is_file()
            } if (cwd / "out").exists() else {}
            outputs.append((result.stdout, files))
        assert outputs[0] == outputs[1], f"command {command} not deterministic"

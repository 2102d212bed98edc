"""Aggregate indemnity-loss modeling for insured portfolios.

Poisson-Gamma (CreditRisk+ style) engine: exposure banding, Panjer and FFT
evaluation of the aggregate loss distribution, tail quantiles, additive VaR
allocation, and a seeded Monte Carlo cross-check.
"""

from .analytics import (
    ContributionRow,
    ContributionTable,
    Moments,
    QuantileRow,
    RiskReport,
    build_report,
    exceedance_quantile,
    moments,
    risk_contributions,
)
from .engine import (
    Band,
    BandedPortfolio,
    BandedSector,
    LossDistribution,
    SectorParams,
    analytic_moments,
    auto_grid_size,
    band_exposures,
    loss_dist_fft,
    loss_dist_poisson,
    loss_dist_sector,
    poisson_rate,
    units_ceiling,
)
from .errors import InputError, ModelError
from .portfolio import (
    DiscountSpec,
    Portfolio,
    Sector,
    SectorAssignment,
    SectoredPortfolio,
    SUB_DTYPE,
    ValidationFinding,
    assign_sectors,
    bundled_dataset_path,
    discount_exposures,
    load_portfolio,
    parse_portfolio,
    validate_portfolio,
)
from .simulate import (
    ComparisonReport,
    CompareRow,
    EmpiricalDistribution,
    SimConfig,
    compare,
    empirical_exceedance_quantile,
    simulate,
)

__version__ = "0.12.0"


def __getattr__(name: str):
    # loaded on first use, so that `python -m agririsk.cli` does not find cli already imported
    if name in ("Run", "run_pipeline"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# every class and function imported above, so each public name is written once, and the lazy names and dtype
__all__ = sorted(
    [name for name, value in globals().items() if getattr(value, "__module__", "").startswith("agririsk.")]
    + ["Run", "run_pipeline", "SUB_DTYPE"]
)

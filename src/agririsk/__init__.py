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
    moments,
    risk_contributions,
)
from .engine import (
    Band,
    BandedPortfolio,
    BandedSector,
    LossDistribution,
    Run,
    SectorParams,
    analytic_moments,
    auto_grid_size,
    band_exposures,
    exceedance_quantile,
    loss_dist_fft,
    loss_dist_poisson,
    loss_dist_sector,
    poisson_rate,
    run_pipeline,
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

__version__ = "0.21.0"

# every class and function imported above, so each public name is written once, and the dtype
__all__ = sorted(
    [name for name, value in globals().items() if getattr(value, "__module__", "").startswith("agririsk.")]
    + ["SUB_DTYPE"]
)

"""Exposure banding and aggregate loss distributions.

Exposures are discretized onto an integer grid of unit size L. The
aggregate indemnity distribution is then computed two independent ways:
the (a, b, 0) Panjer recursion over the banded severities (Poisson counts,
or gamma-mixed negative binomial counts per sector) and inversion of the
closed-form probability generating function at the complex roots of unity
via FFT. run_pipeline is the whole run: portfolio CSV -> validation ->
discounting -> sectors -> bands -> loss pmf on one of those backends, each
stage kept in a Run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from . import portfolio as pf
from .errors import InputError, ModelError

# tolerances shared with the test-suite contracts
NEGATIVE_PMF_CLAMP = 1e-14  # FFT round-off below -1e-14 is treated as failure
_GRID_SNAP = 1e-9  # relative slack when amount/unit lands on an integer
_MAX_LEVEL = 2.0**62  # band levels are int64

TAIL_EPS = 1e-12  # auto grid: Chernoff bound on P(loss >= grid) at most this
MAX_GRID = 1 << 26  # largest grid any backend allocates: 512 MiB per float64 array
# largest gamma scale beta of a sector's count: rho = beta/(1+beta) stays below 1 in doubles, and
# beta above it fails MAX_GRID anyway, since the tail bound's t stays below 1/beta
_MAX_GAMMA_SCALE = 2.0**50
_EXPM1_CAP = 700.0  # t * max_v bound keeping expm1(t v) finite
_SEARCH_STEPS = 64  # golden-section steps: the bracket shrinks to < 1e-13 of t_max
_LOG_G0_FLOOR = -700.0  # Panjer splits the count where log g_0 is lower: subnormal g_0 loses digits
_BLOCK_CELLS = 1 << 16  # Panjer block rows shrink so that one gather holds at most this many floats


@dataclass(frozen=True)
class Band:
    """Exposure band: level v in units of L, expected loss epsilon in units of L."""

    v: int
    epsilon: float


@dataclass(frozen=True)
class SectorParams:
    """One sector's gamma mixing, its entry of BandedPortfolio.cv, as the sectors view gives it."""

    cv: float

    @property
    def is_poisson(self) -> bool:
        return self.cv == 0.0


@dataclass(frozen=True)
class BandedSector:
    name: str
    params: SectorParams
    bands: tuple[Band, ...]


@dataclass(frozen=True, eq=False)
class BandedPortfolio:
    """Named sectors with their gamma mixing, plus a table of every sub-exposure's banded position.

    cv holds each sector's gamma mixing, a float64 finite and >= 0: the
    coefficient of variation sigma_k / mu_k of its mean-1 intensity scaling,
    mu_k its bands' expected count; 0 marks an unmixed Poisson sector. The
    sub_* arrays run over sub-exposures: the obligor's index in obligor_ids,
    the sector's index in names and cv, the band level (int64, at least 1)
    and expected loss epsilon in units (finite, >= 0). Sub-exposures sharing
    a sector and a level form one band; unit, L, is held as a Python float.
    """

    unit: float
    names: tuple[str, ...]
    cv: np.ndarray
    obligor_ids: tuple[str, ...]
    sub_obligor: np.ndarray
    sub_sector: np.ndarray
    sub_level: np.ndarray
    sub_epsilon: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unit", float(self.unit))
        object.__setattr__(self, "cv", np.asarray(self.cv, np.float64))
        columns = (self.sub_obligor, self.sub_sector, self.sub_level, self.sub_epsilon)
        if self.cv.shape != (len(self.names),) or len({np.shape(c) for c in columns}) != 1:
            raise ModelError("banded portfolio: names and cv, and the four sub_* arrays, need equal lengths")
        for what, values in (("sector cv", self.cv), ("band expected loss", self.sub_epsilon)):
            bad = ~((0.0 <= values) & (values < math.inf))  # NaN fails both
            if bad.any():
                raise ModelError(f"{what} must be finite and >= 0, got {float(values[bad][0])!r}")
        for what, index, n in (("sector", self.sub_sector, len(self.names)),
                               ("obligor", self.sub_obligor, len(self.obligor_ids))):
            if not np.all((0 <= index) & (index < n)):
                raise ModelError(f"sub-exposure {what} index outside 0..{n - 1}")
        if not np.all(self.sub_level >= 1):
            raise ModelError(f"band level must be a positive integer, got {int(self.sub_level.min())}")

    @cached_property
    def sectors(self) -> tuple[BandedSector, ...]:
        """Each sector's name, cv and bands in level order, as objects built on demand from the columns."""
        (sector, level), eps = _merge((self.sub_sector, self.sub_level), self.sub_epsilon)
        bands = list(map(Band, level.tolist(), eps.tolist()))
        ends = np.cumsum(np.bincount(sector, minlength=len(self.names))).tolist()
        return tuple(BandedSector(name, SectorParams(cv), tuple(bands[lo:hi]))
                     for name, cv, lo, hi in zip(self.names, self.cv.tolist(), [0] + ends, ends))

    @cached_property
    def _cumulant(self) -> "_Cumulant":
        """The sector model's compound parts and K(t), built once for the grid rule and every backend."""
        return _Cumulant(self)

    @property
    def max_v(self) -> int:
        return int(self.sub_level.max(initial=0))

    @property
    def expected_loss(self) -> float:
        return float(self.sub_epsilon.sum()) * self.unit


@dataclass(frozen=True, eq=False)
class LossDistribution:
    """Aggregate loss pmf on the grid {0, L, 2L, ...}, checked when built: round-off in [-1e-14, 0) reads as 0.

    unit, L, is held as a Python float. A lower or NaN entry, a sum above 1 + 1e-9, or a last grid point
    (size - 1) * unit past the largest float raises ModelError. The mass past the grid, 1 - sum(pmf), is
    truncation_mass, never renormalized away: that would silently distort quantiles. tail_bound (keyword-only)
    is a Chernoff bound on P(loss >= grid size), which also bounds the FFT's aliasing; 0.0 marks none.
    """

    unit: float
    pmf: np.ndarray
    truncation_mass: float = field(init=False)
    tail_bound: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "unit", float(self.unit))
        pmf = np.asarray(self.pmf, dtype=float)
        if not (pmf.size - 1) * self.unit < math.inf:  # in Python floats, which overflow without a warning
            raise ModelError(
                f"a {pmf.size}-point loss grid overflows at unit {self.unit!r}; use a smaller unit (--unit)"
            )
        worst = float(pmf.min())  # NaN where any entry is NaN, which fails both checks
        if not worst >= -NEGATIVE_PMF_CLAMP:
            raise ModelError(f"pmf entry {worst:.3e} below the -1e-14 round-off clamp")
        if worst < 0.0:
            pmf = np.where(pmf < 0.0, 0.0, pmf)
        total = float(pmf.sum())
        if not total <= 1.0 + 1e-9:
            raise ModelError(f"pmf sums to {total!r} > 1 + 1e-9")
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "truncation_mass", 1.0 - total)

    @cached_property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    @cached_property
    def sf(self) -> np.ndarray:
        """P(loss > n units) at each grid point n, 1 - cdf: what exceedance_quantile and prob_exceeds read."""
        return 1.0 - self.cdf

    def prob_exceeds(self, amount: float) -> float:
        """P(loss > amount) on the grid, nonnegative and nonincreasing in amount.

        Beyond the grid this is the survival at its last point, which holds
        any truncated mass; round-off below zero reads as 0.
        """
        idx = int(math.floor(amount / self.unit))
        if idx < 0:
            return 1.0
        return max(0.0, float(self.sf[min(idx, self.pmf.size - 1)]))

    def to_csv(self) -> str:
        """Each grid point n's row: n, n * unit, pmf and cdf, each as repr writes it."""
        from . import _numtext  # here, not at the top: only a run that writes this file loads it

        n, unit = np.arange(self.pmf.size), self.unit
        # where every n * unit is a whole float below 2**53, its repr is its integer's digits and ".0"
        whole = unit.is_integer() and 0.0 < unit and (n.size - 1) * unit < 2.0**53
        money, after = (n * int(unit), ".0,") if whole else (n * unit, ",")
        rows = _numtext.table([n, ",", money, after, self.pmf, ",", self.cdf, "\n"], n.size)
        return "".join(["loss_units,loss_money,pmf,cdf\n", *rows])


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
    tail = dist.sf
    if tail[-1] > eps:  # tail is nonincreasing, so no grid point qualifies
        raise ModelError(
            f"exceedance probability {eps} is below the smallest the pmf resolves, {tail[-1]:.3e}"
        )
    x = int(np.argmax(tail <= eps))
    if tail[x] + dist.tail_bound > eps:
        raise ModelError(f"grid too small to certify: survival {tail[x]:.3e} at {x * dist.unit!r} "
                         f"plus tail bound {dist.tail_bound:.3e} exceeds level {eps}")
    return x * dist.unit


def units_ceiling(amount, unit: float):
    """Band level ceiling(amount/unit), snapped to exact multiples: an int, or int64s for an array."""
    with np.errstate(over="ignore"):  # an amount past the largest float in units is refused below
        q = np.asarray(amount, dtype=float) / unit
    if not np.all(q < _MAX_LEVEL):
        raise ModelError(f"an exposure spans {np.max(q):.4g} units; use a larger unit (--unit)")
    nearest = np.round(q)
    # 300/100 must give 3 even when the quotient lands at 3.0000000000000004
    snapped = np.abs(q - nearest) <= _GRID_SNAP * np.maximum(1.0, np.abs(q))
    v = np.maximum(np.where(snapped, nearest, np.ceil(q)), 1.0).astype(np.int64)
    return int(v) if v.ndim == 0 else v


def band_exposures(sectored: pf.SectoredPortfolio, unit: float) -> BandedPortfolio:
    """Discretize the sectored portfolio's sub-exposures into integer bands of size unit.

    Each sub-exposure x with loss rate p maps to level v = ceiling(x/unit)
    and expected loss epsilon = x*p/unit; sub-exposures sharing (sector, v)
    form one band. Banding preserves expected loss exactly; the round-up
    inflates severity only. A sector's cv is its stddev_rate / mean_rate,
    or 0 where it has no expected defaults. The banded sub_obligor and
    sub_sector are views of the sectored table's columns.
    """
    if not (math.isfinite(unit) and unit > 0.0):
        raise InputError(f"unit must be finite and > 0, got {unit}")
    names, mean, stddev = sectored.names, sectored.mean_rate, sectored.stddev_rate
    obligor, sector, amount, rate = (sectored.subs[f] for f in pf.SUB_DTYPE.names)
    if not np.all(amount > 0.0):
        i = int(np.argmin(amount > 0.0))
        raise ModelError(f"sub-exposure of {sectored.obligor_ids[obligor[i]]} in {names[sector[i]]!r} is not positive")
    level = units_ceiling(amount, unit)
    epsilon = amount * rate / unit
    count = np.bincount(sector, weights=epsilon / level, minlength=len(names))
    with np.errstate(over="ignore"):  # a cv or cv**2 that overflows to inf is too large, as it should be
        # no expected defaults: nothing to mix
        cv = np.divide(stddev, mean, out=np.zeros(len(names)), where=(mean != 0.0) & (count != 0.0))
        # alpha = cv**-2 would overflow, or the count's gamma scale beta = cv**2 * count round rho to 1
        small = cv <= 1e-154
        bad = (cv != 0.0) & (small | (cv**2 * count > _MAX_GAMMA_SCALE))
    if bad.any():
        k = int(np.argmax(bad))
        what = "small for a gamma shape" if small[k] else "large for a gamma scale"
        raise InputError(f"sector {names[k]!r}: rate volatility {float(stddev[k])!r} is too {what}")
    return BandedPortfolio(unit, names, cv, sectored.obligor_ids, obligor, sector, level, epsilon)


def _merge(keys: tuple[np.ndarray, ...], weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique rows of int64 key columns (first major), and each row's weights summed in input order."""
    order = np.lexsort(keys[::-1])
    key = np.stack([k[order] for k in keys])
    starts = np.diff(key, axis=1, prepend=-1).any(axis=0)
    return key[:, starts], np.bincount(np.cumsum(starts) - 1, weights=weights[order])


def poisson_rate(banded: BandedPortfolio) -> float:
    """Total expected number of defaults over all bands of all sectors."""
    return float(banded._cumulant.mu.sum())


def analytic_moments(banded: BandedPortfolio) -> tuple[float, float]:
    """Exact (mean, variance) of the sector model in money units.

    Per part: variance_units = sum(eps*v) + (sum(eps))^2 / alpha, the second
    term only for a gamma part; the gamma mixing leaves the mean at sum(eps).
    """
    c = banded._cumulant
    # numpy's own loops, not a threaded BLAS dot, so the sums do not move with the thread count
    var_u = float(np.einsum("i,i->", c.eps, c.v)) + float(np.einsum("i,i->", c.eps_total[1:] ** 2, 1.0 / c.alpha))
    mean, variance = float(c.eps_total.sum()) * banded.unit, var_u * (banded.unit * banded.unit)
    if not (mean < math.inf and variance < math.inf):  # NaN too: a zero variance times an infinite unit * unit
        raise ModelError(f"model moments overflow at unit {banded.unit!r}; use a smaller unit (--unit)")
    return mean, variance


def _golden_min(fn, hi: float) -> float:
    """Least value golden-section search finds for a unimodal fn on (0, hi]."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
    c, d = b - r * b, r * b
    fc, fd = fn(c), fn(d)
    for _ in range(_SEARCH_STEPS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = fn(d)
    return min(fc, fd)


class _Cumulant:
    """The loss S in grid units split into independent compound parts, and its K(t) = log E[exp(t S)].

    Part 0, a compound Poisson, pools every unmixed sector's subs; part
    k >= 1 is the k-th gamma sector, a compound negative binomial with shape
    alpha_k = cv_k**-2 and scale beta_k = cv_k**2 mu_k, mu_k its expected
    count. The sub table merges once per (part, level) into flat arrays,
    zero-loss levels dropped, and every backend, the tail bound, the
    sampler, the moments and the variance contributions read these parts,
    these alpha_k and beta_k, sector_part (each sector's part) and
    eps_total (each part's epsilon, summed in level order). Both backends
    and the sampler read pool, the run's one compound Poisson of part 0 and
    the folded gamma parts (one level, beta_k <= 1), and then parts().
    K(t) = d_0(t) - sum_k alpha_k log(1 - beta_k d_k(t)), where
    d_k(t) = sum_v w_kv expm1(t v) with weight mu in part 0 and severity f_kv
    in part k, so one bincount gives every d_k. Markov's inequality gives
    P(S >= n) <= exp(K(t) - t n) for every t > 0. K is finite and convex
    below the first gamma pole beta_k d_k(t) = 1 and +inf from it on, so
    the golden search runs on (0, t_max] with t_max = min(700 / max_v,
    log1p(1/beta_k) / v_k over the gamma parts, v_k the part's lowest level):
    expm1(t v) stays finite, and since part k's weights sum to 1,
    d_k(t) >= expm1(t v_k), so each pole lies at or below its term. _k
    evaluates K under np.errstate(over="ignore"), which __call__ enters per
    call and each golden search once for its 66 evaluations: a product
    that overflows reads inf, past a pole, or near t_max where one part 0
    level's mu passes about 1.8e4 and mu expm1(700) leaves the doubles.
    """

    def __init__(self, banded: BandedPortfolio):
        gamma = banded.cv > 0.0
        self.sector_part = np.where(gamma, np.cumsum(gamma), 0)
        (part, v), eps = _merge((self.sector_part[banded.sub_sector], banded.sub_level), banded.sub_epsilon)
        keep = eps > 0.0  # zero-loss levels would only lower t_max
        self.part, self.v, self.eps = part[keep], v[keep], eps[keep]
        self.mu = mu = self.eps / self.v
        cv = banded.cv[gamma]
        self.eps_total = np.bincount(self.part, weights=self.eps, minlength=cv.size + 1)
        totals = np.bincount(self.part, weights=mu, minlength=cv.size + 1)
        self.w = np.where(self.part > 0, mu / totals[self.part], mu)
        self.alpha = cv**-2
        self.beta = cv**2 * totals[1:]
        first = np.flatnonzero(np.diff(self.part, prepend=0))
        # beta 0 has no pole; where 1/beta overflows (beta < 5.6e-309) the pole lies past 700 / max_v anyway
        with np.errstate(divide="ignore", over="ignore"):
            poles = np.log1p(1.0 / self.beta[self.part[first] - 1]) / self.v[first]
        self.t_max = float(min(_EXPM1_CAP / self.v.max(initial=1), poles.min(initial=math.inf)))
        if not self.t_max > 0.0:  # a gamma scale near 1e304 or above, which only a hand-built portfolio has
            raise ModelError(f"gamma scale {float(self.beta.max())!r} leaves no t > 0 to bound the loss tail")

    def parts(self):
        """(levels, epsilon, expected counts mu, (alpha, beta)) of each gamma part with loss that pool does not hold.

        Part k >= 1 is the k-th sector with cv > 0: a compound negative binomial.
        """
        bounds = np.searchsorted(self.part, np.arange(1, self.alpha.size + 2)).tolist()
        gammas = list(zip(self.alpha.tolist(), self.beta.tolist()))
        for k in np.flatnonzero((np.diff(bounds) > 0) & ~self.folded).tolist():
            lo, hi = bounds[k], bounds[k + 1]
            yield self.v[lo:hi], self.eps[lo:hi], self.mu[lo:hi], gammas[k]

    @cached_property
    def folded(self) -> np.ndarray:
        """Mask over the gamma parts 1..K that series() folds: one level, and beta <= 1 (rho <= 1/2)."""
        return (np.bincount(self.part, minlength=self.alpha.size + 1)[1:] == 1) & (self.beta <= 1.0)

    def series(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The folded parts as one compound Poisson: (levels, intensities, count).

        A negative binomial count NB(alpha, beta) of one level v is a
        Poisson(alpha log1p beta) number of logarithmic(rho) clusters of v,
        rho = beta / (1 + beta), so it is intensity alpha rho^m / m at each
        level m v (Quenouille 1949). Each part keeps the least M <= 61 terms
        whose dropped tail, at most alpha rho^(M+1) / ((M+1) (1 - rho)), is at
        most 2^-60 of its count alpha log1p beta; rho <= 1/2 makes M = 60
        enough. count is the closed forms' sum, dropped terms included.
        """
        alpha, beta = self.alpha[self.folded], self.beta[self.folded]
        v = self.v[np.append(False, self.folded)[self.part]]  # each folded part's one level, in part order
        rho = beta / (1.0 + beta)
        log_count = np.log1p(beta)
        need = np.ldexp(log_count, -60) * (1.0 - rho)
        terms, power = np.ones(rho.size, np.int64), rho * rho
        for m in range(2, 62):  # power = rho^m: is the tail past m - 1 terms too large?
            short = power > need * m
            if not short.any():
                break
            terms += short
            power *= rho
        m = np.arange(1, terms.sum() + 1) - np.repeat(np.cumsum(terms) - terms, terms)
        rates = np.repeat(alpha, terms) * np.repeat(rho, terms) ** m / m
        return np.repeat(v, terms) * m, rates, float(np.einsum("i,i->", alpha, log_count))

    @cached_property
    def pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The run's one compound Poisson, part 0's bands (epsilon as given) then series(): (levels, eps, mu, count)."""
        n0 = int(np.searchsorted(self.part, 1))
        levels, rates, count = self.series()
        return (np.append(self.v[:n0], levels), np.append(self.eps[:n0], levels * rates),
                np.append(self.mu[:n0], rates), float(self.mu[:n0].sum()) + count)

    def _k(self, t: float) -> float:
        """K(t), for a caller inside np.errstate(over="ignore"): a term that overflows makes K(t) inf, as it is."""
        d = np.bincount(self.part, weights=self.w * np.expm1(t * self.v), minlength=self.alpha.size + 1)
        x = self.beta * d[1:]
        if not (x < 1.0).all():
            return math.inf
        return float(d[0] - np.einsum("i,i->", self.alpha, np.log1p(-x)))

    def __call__(self, t: float) -> float:
        with np.errstate(over="ignore"):
            return self._k(t)

    def grid_need(self) -> float:
        """Least n the bound certifies at TAIL_EPS: min over t of (K(t) + log(1/TAIL_EPS)) / t."""
        if not self.v.size:
            return 0.0
        log_inv_eps = -math.log(TAIL_EPS)
        with np.errstate(over="ignore"):
            return _golden_min(lambda t: (self._k(t) + log_inv_eps) / t, self.t_max)

    def tail_bound(self, n: int) -> float:
        """min over t of exp(K(t) - t n), an upper bound on P(S >= n), at most 1."""
        if not self.v.size:
            return 0.0
        with np.errstate(over="ignore"):
            return math.exp(min(0.0, _golden_min(lambda t: self._k(t) - t * n, self.t_max)))


def _smooth_length(n: int) -> int:
    """Least 2^a 3^b 5^c at or above n >= 1: the FFT runs about as fast per point on these as on powers of two."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two at or above ceil(n / p35)
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def auto_grid_size(banded: BandedPortfolio) -> int:
    """Least 5-smooth N (2^a 3^b 5^c) with a Chernoff bound on P(loss >= N) of at most TAIL_EPS.

    N is also at least 2 (max_v + 1), the FFT's alias padding, and 16. The
    bound at N sits just below TAIL_EPS, so quantiles certify down to levels
    of about 1e-10; deeper levels need a larger explicit grid.
    """
    need = max(banded._cumulant.grid_need(), 2.0 * (banded.max_v + 1), 16.0)
    if not need <= MAX_GRID:
        raise ModelError(
            f"the loss tail needs a grid of {need:.4g} points, above the {MAX_GRID}-point limit; "
            "use a larger unit (--unit)"
        )
    return _smooth_length(math.ceil(need))


def _check_grid(grid_size: int, minimum: int, what: str) -> None:
    if grid_size < minimum:
        raise ModelError(f"grid_size {grid_size} too small for {what}: need at least {minimum}")
    if grid_size > MAX_GRID:
        raise ModelError(
            f"grid_size {grid_size} is above the {MAX_GRID}-point limit; use a larger unit (--unit)"
        )


def _panjer(vs: np.ndarray, eps: np.ndarray, mu: np.ndarray, gamma: tuple[float, float] | None,
            grid_size: int, count: float | None = None) -> np.ndarray:
    """Compound pmf of bands at levels vs, losses eps and expected counts mu by the (a, b, 0) Panjer recursion.

    g_n = sum_j (a + b v_j / n) f_j g_{n - v_j} over the levels v_j <= n, with
    severity f_j = mu_j / sum(mu), which has no mass at 0. Gamma-mixed counts,
    gamma = (alpha, beta), are negative binomial: rho = beta / (1 + beta),
    a = rho, b = rho (alpha - 1), g_0 = (1 + beta)^-alpha. Poisson counts
    (gamma None) are a = 0, b = sum(mu), so b f_j v_j = eps_j and
    g_0 = exp(-count), count sum(mu) unless given: a count that also holds
    levels past the grid.

    g_n reads only g_{n - v_j} with v_j >= v_min, so each block of v_min
    points (fewer where a block would gather over _BLOCK_CELLS entries) is
    one gather from a shifted view of a zero-padded g (negative indices
    read 0), one ndarray.dot with the stacked (a f_j, b f_j v_j), the same
    dgemm as np.dot without its dispatch wrapper, one division of the b
    column by n and one add of the a column written straight into g. Each
    call writes into a buffer made before the loop, and the block rows of n
    and g are cut once as (blocks, block) views, so a step slices only for
    its gather. Where g_0 would fall below exp(-700) the count is the sum
    of m independent pieces,
    each with rate (or gamma shape) divided by m: the recursion runs for one
    piece and the piece is convolved with itself m - 1 times, which is exact.
    """
    if gamma is None:
        log_g0 = -float(mu.sum() if count is None else count)
    else:
        alpha, beta = gamma
        rho = beta / (1.0 + beta)
        if not 0.0 <= rho < 1.0:  # 0 where beta underflowed: the count is 0, and g is the point mass at 0
            raise ModelError(f"rho must lie in [0, 1), got {rho!r}")
        log_g0 = -alpha * math.log1p(beta)
    pieces = max(1, math.ceil(log_g0 / _LOG_G0_FLOOR))
    if gamma is None:
        fa, fbv = np.zeros(vs.size), eps / pieces
    else:
        f = mu / mu.sum()
        fa, fbv = rho * f, rho * (alpha / pieces - 1.0) * f * vs
    coef = np.stack((fa, fbv), axis=1)
    v_min, v_max = int(vs[0]), int(vs[-1])
    block = max(1, min(v_min, _BLOCK_CELLS // vs.size))
    # v_max zeros before g, and room after it for the last block to run whole
    padded = np.zeros(v_max + grid_size + block)
    g = padded[v_max:]
    g[0] = math.exp(log_g0 / pieces)
    offsets = v_max + np.arange(block)[:, None] - vs  # row i, column j of padded[n:] is g[n + i - v_j]
    blocks = -(-(grid_size - 1) // block)
    # row k of each is block k: the points n = 1 + k block onwards, their n as floats, and their g
    ns = np.arange(1, 1 + blocks * block, dtype=float).reshape(blocks, block)
    rows = g[1:1 + blocks * block].reshape(blocks, block)
    x, terms, quotient = np.empty(offsets.shape), np.empty((block, 2)), np.empty(block)
    fa_terms, fbv_terms = terms[:, 0], terms[:, 1]
    for n, n_row, g_row in zip(range(1, grid_size, block), ns, rows):
        # every index lies inside padded, so "clip" clips nothing: it spares the copy of x that "raise" makes
        padded[n:].take(offsets, out=x, mode="clip")
        x.dot(coef, out=terms)
        np.divide(fbv_terms, n_row, out=quotient)
        np.add(fa_terms, quotient, out=g_row)
    g = piece = g[:grid_size]
    for _ in range(pieces - 1):
        g = _convolve_pmfs(g, piece)
    return g


def loss_dist_poisson(banded: BandedPortfolio, grid_size: int) -> LossDistribution:
    """Aggregate loss pmf with unmixed Poisson default counts in every band.

    Computed by the classical Panjer recursion for the compound Poisson
    generating function; sector gamma parameters are ignored on this path.
    """
    return loss_dist_sector(replace(banded, cv=np.zeros(len(banded.names))), grid_size)


def loss_dist_sector(banded: BandedPortfolio, grid_size: int) -> LossDistribution:
    """Aggregate loss pmf under gamma-mixed sectors, by Panjer recursion per independent part.

    The run's one compound Poisson, _Cumulant.pool (the unmixed bands and
    the folded gamma sectors), is one recursion, with its levels below the
    grid and its whole count; each other gamma sector is one compound
    negative binomial. Each is computed on the full grid, and they are then
    convolved, with the same parts' tail bound. With no part carrying loss
    the pmf is the point mass at zero.
    """
    _check_grid(grid_size, banded.max_v + 1, "the largest band")
    cumulant = banded._cumulant
    levels, eps, _, count = cumulant.pool
    below = levels < grid_size
    eps = np.bincount(levels[below], weights=eps[below], minlength=grid_size)
    vs = np.flatnonzero(eps)
    pmfs = [_panjer(vs, eps[vs], eps[vs] / vs, None, grid_size, count)] if vs.size else []
    pmfs += [_panjer(*part, grid_size) for part in cumulant.parts()]
    raw = reduce(_convolve_pmfs, pmfs) if pmfs else np.eye(1, grid_size)[0]
    return LossDistribution(banded.unit, raw, tail_bound=cumulant.tail_bound(grid_size))


def _log1p(z: np.ndarray) -> np.ndarray:
    """Complex log(1 + z), accurate to relative round-off as |z| -> 0 for Re z >= 0.

    numpy's complex log1p loses digits at small |z|; here the modulus goes
    through the real log1p and the argument through arctan2.
    """
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def loss_dist_fft(banded: BandedPortfolio, grid_size: int) -> LossDistribution:
    """Aggregate loss pmf by evaluating log G at the grid_size roots of unity.

    grid_size may be any length at least twice (1 + max band level), which
    pads against aliasing; 5-smooth lengths (2^a 3^b 5^c) transform fastest.
    Working on log G and exponentiating per frequency avoids overflow from
    large gamma shape parameters; LossDistribution clamps tiny negative
    round-off coefficients to zero.
    """
    _check_grid(grid_size, 2 * (banded.max_v + 1), "alias-safe FFT inversion")
    # the pmf is real, so its spectrum is Hermitian and the half spectrum suffices
    log_g = np.zeros(grid_size // 2 + 1, dtype=complex)
    cumulant = banded._cumulant
    for vs, _, mu, (alpha, beta) in cumulant.parts():
        q = np.fft.rfft(np.bincount(vs, weights=mu / mu.sum()), grid_size)
        # alpha*(log(1-rho) - log(1-rho*Q)) with beta = rho/(1-rho); |Q| <= 1 keeps
        # Re(1-Q) >= 0, so the log1p is accurate and finite however small beta is
        log_g -= alpha * _log1p(beta * (1.0 - q))
    levels, _, rates, _ = cumulant.pool
    if levels.size:
        # the one compound Poisson: log G gains sum_l r_l (w^(l j) - 1), a level l >= grid_size
        # landing on l mod grid_size as the transform of one past the grid would
        r = np.bincount(levels % grid_size, weights=rates, minlength=grid_size)
        log_g += np.fft.rfft(r) - r.sum()
    pmf = np.fft.irfft(np.exp(log_g), grid_size)
    return LossDistribution(banded.unit, pmf, tail_bound=cumulant.tail_bound(grid_size))


def _convolve_pmfs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two pmfs on the unit grid, cut to the longer one's length."""
    n = max(a.size, b.size)
    # at least len(a) + len(b) - 1, so the circular product does not wrap
    size = _smooth_length(a.size + b.size - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


_BACKENDS = {"panjer": loss_dist_sector, "fft": loss_dist_fft}


@dataclass(frozen=True)
class Run:
    """Every stage of one pipeline run, and the config its report files record."""

    portfolio: pf.Portfolio  # after discounting
    findings: list[pf.ValidationFinding]
    sectored: pf.SectoredPortfolio
    banded: BandedPortfolio
    dist: LossDistribution
    levels: tuple[float, ...]
    config: dict


def run_pipeline(
    *,
    input: str | Path | None = None,
    unit: float = 1.0,
    sector_mode: str = "crop-livestock",
    sector_rates: dict[str, tuple[float, float]] | None = None,
    rate: float = 0.0,
    horizon: float = 0.0,
    backend: str = "fft",
    grid: int | None = None,
    levels: tuple[float, ...] = (0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001),
    tolerance: float = 0.02,
) -> Run:
    """Portfolio CSV -> validation -> discounting -> sectors -> bands -> loss pmf.

    The keywords are the pipeline flags of ``analyze``, ``dist`` and
    ``simulate``, with the same defaults. ``input=None`` reads the bundled
    dataset and ``grid=None`` sizes the grid from the tail bound.
    """
    if backend not in _BACKENDS:
        raise InputError(f"backend must be one of {', '.join(_BACKENDS)}, got {backend!r}")
    levels = tuple(float(lvl) for lvl in levels)
    if not levels:
        raise InputError("levels must name at least one level")
    if not all(0.0 < lvl < 1.0 for lvl in levels):
        raise InputError(f"levels must lie in (0, 1), got {list(levels)}")
    if len(set(levels)) < len(levels):
        raise InputError(f"levels must not repeat a level, got {list(levels)}")
    source = Path(input) if input else pf.bundled_dataset_path()
    port = pf.load_portfolio(source)
    findings = pf.validate_portfolio(port, tolerance)
    discounted = pf.discount_exposures(port, pf.DiscountSpec(rate, horizon))
    sectored = pf.assign_sectors(discounted, pf.SectorAssignment(sector_mode, sector_rates))
    banded = band_exposures(sectored, unit)
    grid_size = auto_grid_size(banded) if grid is None else grid
    dist = _BACKENDS[backend](banded, grid_size)
    config = {  # the numbers the run used, as Python numbers, so that json can write any of them
        "input": str(source),
        "unit": banded.unit,
        "sector_mode": sector_mode,
        "sector_rates": None if sector_rates is None else {k: list(map(float, v)) for k, v in sector_rates.items()},
        "rate": float(rate),
        "horizon": float(horizon),
        "backend": backend,
        "grid_size": int(grid_size),
        "levels": list(levels),
        "tolerance": float(tolerance),
    }
    return Run(discounted, findings, sectored, banded, dist, levels, config)

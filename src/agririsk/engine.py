"""Exposure banding and aggregate loss distributions.

Exposures are discretized onto an integer grid of unit size L. The
aggregate indemnity distribution is then computed two independent ways:
the (a, b, 0) Panjer recursion over the banded severities (Poisson counts,
or gamma-mixed negative binomial counts per sector) and inversion of the
closed-form probability generating function at the complex roots of unity
via FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .errors import InputError, ModelError
from .portfolio import SUB_DTYPE, SectoredPortfolio

# tolerances shared with the test-suite contracts
NEGATIVE_PMF_CLAMP = 1e-14  # FFT round-off below -1e-14 is treated as failure
_GRID_SNAP = 1e-9  # relative slack when amount/unit lands on an integer
_MAX_LEVEL = 2.0**62  # band levels are int64

_CSV_CHUNK_ROWS = 1 << 14  # grid rows formatted per join in LossDistribution.to_csv

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

    @property
    def mu(self) -> float:
        """Expected number of defaults in the band (epsilon / v)."""
        return self.epsilon / self.v


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
    a sector and a level form one band.
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
    def _bands(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """((sector, level), epsilon) of each band: the subs merged per (sector, level), summed in table order."""
        return _merge((self.sub_sector, self.sub_level), self.sub_epsilon)

    @cached_property
    def sectors(self) -> tuple[BandedSector, ...]:
        """Each sector's name, cv and bands in level order, as objects built on demand from the columns."""
        (sector, level), eps = self._bands
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
    """Aggregate loss pmf on the grid {0, L, 2L, ...}.

    Mass beyond the grid is tracked as truncation_mass, never renormalized
    away: renormalizing would silently distort quantiles. tail_bound is a
    Chernoff bound on P(loss >= grid size), which also bounds the FFT's
    aliasing error; 0.0 marks a distribution built without one.
    """

    unit: float
    pmf: np.ndarray
    truncation_mass: float
    tail_bound: float = 0.0

    @cached_property
    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def prob_exceeds(self, amount: float) -> float:
        """P(loss > amount) on the grid, nonnegative and nonincreasing in amount.

        Beyond the grid this is the survival at its last point, which holds
        any truncated mass; round-off below zero reads as 0.
        """
        idx = int(math.floor(amount / self.unit))
        if idx < 0:
            return 1.0
        return max(0.0, float(1.0 - self.cdf[min(idx, self.pmf.size - 1)]))

    def to_csv(self) -> str:
        # joined a chunk of rows at a time, so the whole grid's row strings never coexist
        unit, pmf, cdf = self.unit, self.pmf, self.cdf
        chunks = ["loss_units,loss_money,pmf,cdf\n"]
        for start in range(0, pmf.size, _CSV_CHUNK_ROWS):
            rows = range(start, min(start + _CSV_CHUNK_ROWS, pmf.size))
            chunks.append("".join(f"{n},{n * unit!r},{float(pmf[n])!r},{float(cdf[n])!r}\n" for n in rows))
        return "".join(chunks)


def _finalize_pmf(raw: np.ndarray, unit: float, tail_bound: float = 0.0) -> LossDistribution:
    pmf = np.asarray(raw, dtype=float)
    worst = float(pmf.min())  # NaN where any entry is NaN, which fails both checks
    if not worst >= -NEGATIVE_PMF_CLAMP:
        raise ModelError(f"pmf entry {worst:.3e} below the -1e-14 round-off clamp")
    if worst < 0.0:
        pmf = np.where(pmf < 0.0, 0.0, pmf)
    total = float(pmf.sum())
    if not total <= 1.0 + 1e-9:
        raise ModelError(f"pmf sums to {total!r} > 1 + 1e-9")
    return LossDistribution(unit=unit, pmf=pmf, truncation_mass=1.0 - total, tail_bound=tail_bound)


def units_ceiling(amount, unit: float):
    """Band level ceiling(amount/unit), snapped to exact multiples: an int, or int64s for an array."""
    q = np.asarray(amount, dtype=float) / unit
    if not np.all(q < _MAX_LEVEL):
        raise ModelError(f"an exposure spans {np.max(q):.4g} units; use a larger unit (--unit)")
    nearest = np.round(q)
    # 300/100 must give 3 even when the quotient lands at 3.0000000000000004
    snapped = np.abs(q - nearest) <= _GRID_SNAP * np.maximum(1.0, np.abs(q))
    v = np.maximum(np.where(snapped, nearest, np.ceil(q)), 1.0).astype(np.int64)
    return int(v) if v.ndim == 0 else v


def band_exposures(sectored: SectoredPortfolio, unit: float) -> BandedPortfolio:
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
    obligor, sector, amount, rate = (sectored.subs[f] for f in SUB_DTYPE.names)
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
    eps_totals = np.bincount(c.part, weights=c.eps, minlength=c.alpha.size + 1)
    var_u = float(c.eps @ c.v) + float(eps_totals[1:] ** 2 @ (1.0 / c.alpha))
    return float(eps_totals.sum()) * banded.unit, var_u * banded.unit**2


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
    sampler and the moments read these parts and these alpha_k and beta_k.
    K(t) = d_0(t) - sum_k alpha_k log(1 - beta_k d_k(t)), where
    d_k(t) = sum_v w_kv expm1(t v) with weight mu in part 0 and severity f_kv
    in part k, so one bincount gives every d_k. Markov's inequality gives
    P(S >= n) <= exp(K(t) - t n) for every t > 0. K is finite and convex
    below the first gamma pole beta_k d_k(t) = 1 and +inf from it on, so
    the golden search runs on (0, t_max] with t_max = min(700 / max_v,
    log1p(1/beta_k) / v_k over the gamma parts, v_k the part's lowest level):
    expm1(t v) stays finite, and since part k's weights sum to 1,
    d_k(t) >= expm1(t v_k), so each pole lies at or below its term.
    """

    def __init__(self, banded: BandedPortfolio):
        gamma = banded.cv > 0.0
        sector_part = np.where(gamma, np.cumsum(gamma), 0)
        (part, v), eps = _merge((sector_part[banded.sub_sector], banded.sub_level), banded.sub_epsilon)
        keep = eps > 0.0  # zero-loss levels would only lower t_max
        self.part, self.v, self.eps = part[keep], v[keep], eps[keep]
        self.mu = mu = self.eps / self.v
        cv = banded.cv[gamma]
        totals = np.bincount(self.part, weights=mu, minlength=cv.size + 1)
        self.w = np.where(self.part > 0, mu / totals[self.part], mu)
        self.alpha = cv**-2
        self.beta = cv**2 * totals[1:]
        first = np.flatnonzero(np.diff(self.part, prepend=0))
        with np.errstate(divide="ignore"):  # a beta that underflowed to 0 has no pole
            poles = np.log1p(1.0 / self.beta[self.part[first] - 1]) / self.v[first]
        self.t_max = float(min(_EXPM1_CAP / self.v.max(initial=1), poles.min(initial=math.inf)))
        if not self.t_max > 0.0:  # a gamma scale near 1e304 or above, which only a hand-built portfolio has
            raise ModelError(f"gamma scale {float(self.beta.max())!r} leaves no t > 0 to bound the loss tail")

    def parts(self):
        """(levels, epsilon, gamma) of each part that carries loss, part 0 first.

        gamma is the part's (alpha, beta), or None for the compound Poisson part 0;
        part k >= 1 is the k-th sector with cv > 0.
        """
        gammas = [None] + list(zip(self.alpha.tolist(), self.beta.tolist()))
        bounds = np.searchsorted(self.part, np.arange(len(gammas) + 1)).tolist()
        for gamma, lo, hi in zip(gammas, bounds, bounds[1:]):
            if hi > lo:
                yield self.v[lo:hi], self.eps[lo:hi], gamma

    def _d(self, t: float) -> np.ndarray:
        return np.bincount(self.part, weights=self.w * np.expm1(t * self.v), minlength=self.alpha.size + 1)

    def __call__(self, t: float) -> float:
        d = self._d(t)
        with np.errstate(over="ignore"):  # a product that overflows to inf is past its pole, as it should be
            x = self.beta * d[1:]
        if not np.all(x < 1.0):
            return math.inf
        return float(d[0] - self.alpha @ np.log1p(-x))

    def grid_need(self) -> float:
        """Least n the bound certifies at TAIL_EPS: min over t of (K(t) + log(1/TAIL_EPS)) / t."""
        if not self.v.size:
            return 0.0
        log_inv_eps = -math.log(TAIL_EPS)
        return _golden_min(lambda t: (self(t) + log_inv_eps) / t, self.t_max)

    def tail_bound(self, n: int) -> float:
        """min over t of exp(K(t) - t n), an upper bound on P(S >= n), at most 1."""
        if not self.v.size:
            return 0.0
        return math.exp(min(0.0, _golden_min(lambda t: self(t) - t * n, self.t_max)))


def auto_grid_size(banded: BandedPortfolio) -> int:
    """Smallest power of two N with a Chernoff bound on P(loss >= N) of at most TAIL_EPS.

    N is also at least 2 (max_v + 1), the FFT's alias padding, and 16.
    """
    need = max(banded._cumulant.grid_need(), 2.0 * (banded.max_v + 1), 16.0)
    if not need <= MAX_GRID:
        raise ModelError(
            f"the loss tail needs a grid of {need:.4g} points, above the {MAX_GRID}-point limit; "
            "use a larger unit (--unit)"
        )
    return 1 << math.ceil(math.log2(need))


def _check_grid(grid_size: int, minimum: int, what: str) -> None:
    if grid_size < minimum:
        raise ModelError(f"grid_size {grid_size} too small for {what}: need at least {minimum}")
    if grid_size > MAX_GRID:
        raise ModelError(
            f"grid_size {grid_size} is above the {MAX_GRID}-point limit; use a larger unit (--unit)"
        )


def _panjer(vs: np.ndarray, eps: np.ndarray, gamma: tuple[float, float] | None, grid_size: int) -> np.ndarray:
    """Compound pmf of bands at levels vs by the (a, b, 0) Panjer recursion.

    g_n = sum_j (a + b v_j / n) f_j g_{n - v_j} over the levels v_j <= n, with
    severity f_j = mu_j / sum(mu), which has no mass at 0. Gamma-mixed counts,
    gamma = (alpha, beta), are negative binomial: rho = beta / (1 + beta),
    a = rho, b = rho (alpha - 1), g_0 = (1 + beta)^-alpha. Poisson counts
    (gamma None) are a = 0, b = sum(mu), so b f_j v_j = eps_j and
    g_0 = exp(-sum(mu)).

    g_n reads only g_{n - v_j} with v_j >= v_min, so each block of v_min
    points (fewer where a block would gather over _BLOCK_CELLS entries) is
    one gather from a zero-padded g (negative indices read 0) and one
    product with the stacked (a f_j, b f_j v_j). Where g_0 would fall
    below exp(-700) the count is the sum of m independent pieces, each with
    rate (or gamma shape) divided by m: the recursion runs for one piece and
    the piece is convolved with itself m - 1 times, which is exact.
    """
    mu = eps / vs
    if gamma is None:
        log_g0 = -float(mu.sum())
    else:
        alpha, beta = gamma
        rho = beta / (1.0 + beta)
        if not 0.0 < rho < 1.0:
            raise ModelError(f"rho must lie in (0, 1), got {rho!r}")
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
    offsets = v_max + np.arange(block)[:, None] - vs  # row i, column j reads g[n + i - v_j]
    ns = np.arange(grid_size + block, dtype=float)
    for n in range(1, grid_size, block):
        terms = padded.take(offsets + n) @ coef
        g[n:n + block] = terms[:, 0] + terms[:, 1] / ns[n:n + block]
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

    All unmixed bands form one compound Poisson and each gamma sector one
    compound negative binomial, each computed on the full grid; the parts
    are then convolved, with the same parts' tail bound. With no part
    carrying loss the pmf is the point mass at zero.
    """
    _check_grid(grid_size, banded.max_v + 1, "the largest band")
    cumulant = banded._cumulant
    pmfs = [_panjer(vs, eps, gamma, grid_size) for vs, eps, gamma in cumulant.parts()]
    raw = reduce(_convolve_pmfs, pmfs) if pmfs else np.eye(1, grid_size)[0]
    return _finalize_pmf(raw, banded.unit, cumulant.tail_bound(grid_size))


def _log1p(z: np.ndarray) -> np.ndarray:
    """Complex log(1 + z), accurate to relative round-off as |z| -> 0 for Re z >= 0.

    numpy's complex log1p loses digits at small |z|; here the modulus goes
    through the real log1p and the argument through arctan2.
    """
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def loss_dist_fft(banded: BandedPortfolio, grid_size: int) -> LossDistribution:
    """Aggregate loss pmf by evaluating log G at the grid_size roots of unity.

    grid_size must be a power of two at least twice (1 + max band level) to
    pad against aliasing. Working on log G and exponentiating per frequency
    avoids overflow from large gamma shape parameters; tiny negative
    round-off coefficients are clamped to zero afterwards.
    """
    if grid_size < 1 or grid_size & (grid_size - 1):
        raise ModelError(f"grid_size must be a power of two, got {grid_size}")
    _check_grid(grid_size, 2 * (banded.max_v + 1), "alias-safe FFT inversion")
    # the pmf is real, so its spectrum is Hermitian and the half spectrum suffices
    log_g = np.zeros(grid_size // 2 + 1, dtype=complex)
    for vs, eps, gamma in banded._cumulant.parts():
        mu = eps / vs
        count = mu.sum()
        q = np.fft.rfft(np.bincount(vs, weights=mu / count), grid_size)
        if gamma is None:
            log_g += count * (q - 1.0)
        else:
            # alpha*(log(1-rho) - log(1-rho*Q)) with beta = rho/(1-rho); |Q| <= 1 keeps
            # Re(1-Q) >= 0, so the log1p is accurate and finite however small beta is
            alpha, beta = gamma
            log_g -= alpha * _log1p(beta * (1.0 - q))
    pmf = np.fft.irfft(np.exp(log_g), grid_size)
    return _finalize_pmf(pmf, banded.unit, banded._cumulant.tail_bound(grid_size))


def _convolve_pmfs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two pmfs on the unit grid, cut to the longer one's length."""
    n = max(a.size, b.size)
    # a power of two >= len(a) + len(b) - 1, so the circular product does not wrap
    size = 1 << (a.size + b.size - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]

"""Seeded Monte Carlo simulation of the same portfolio model.

An independent cross-check of the analytic engine: draws either Poisson
defaults on the engine's parts (one count per part, from its own Poisson or
negative binomial law with any gamma scaling integrated out, and a level picked
per default; or a gamma scaling and one count per level, whichever draws fewer
variates), or exact Bernoulli defaults on the raw sub-exposures, with a gamma
scaling per sector.
The Bernoulli mode also quantifies the Poisson approximation itself, since
its losses can never exceed total exposure while the Poisson model's can.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .engine import BandedPortfolio, LossDistribution, exceedance_quantile
from .errors import InputError, ModelError
from .portfolio import MC_MODES, SectoredPortfolio

# Draws are generated in fixed-size chunks with child seeds spawned from the
# master seed, so results stay identical under any partitioning of the chunks
# among threads.
CHUNK_DRAWS = 65536
# Within a chunk each sector's (draws x columns) rate matrix, or its picked
# defaults, is built and drawn in row blocks of at most this many variates:
# 512 KiB of float64, which stays in a core's L2 cache and bounds memory whatever
# the column count. Row-blocked draws consume the RNG stream in the same order.
BLOCK_VARIATES = 1 << 16
# A count-first part's count is drawn by a search of its CDF table, of at most this many entries; a part
# whose tail needs more draws a gamma scaling and a Poisson count. A constant of its own, so that no
# sample depends on the block size.
MAX_TABLE = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    n_draws: int
    seed: int
    mode: str = "poisson-banded"

    def __post_init__(self):
        if self.n_draws < 1:
            raise InputError(f"n_draws must be >= 1, got {self.n_draws}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MC_MODES:
            raise InputError(f"unknown MC mode {self.mode!r}; expected one of {MC_MODES}")


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted sample of aggregate losses plus the count of scaled Bernoulli probabilities above 1."""

    samples: np.ndarray
    clamp_count: int = 0
    mode: str = "poisson-banded"
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.size > 1 and np.any(self.samples[1:] < self.samples[:-1]):
            raise InputError("samples must be sorted nondecreasing")

    @property
    def n_draws(self) -> int:
        return self.samples.size

    # inf, without a warning, where a sum passes the largest float; the mc_summary.json writer refuses it
    @property
    def mean(self) -> float:
        with np.errstate(over="ignore"):
            return float(self.samples.mean())

    @property
    def stddev(self) -> float:
        with np.errstate(over="ignore"):
            return float(self.samples.std(ddof=1)) if self.n_draws > 1 else 0.0

    def prob_exceeds(self, amount: float) -> float:
        return float(np.mean(self.samples > amount))

    def to_csv(self) -> str:
        """The --dump-samples file: a loss header, then each sample's repr on a line of its own."""
        from . import _numtext  # here, not at the top: only a run that writes this file loads it

        return "".join(["loss\n", *_numtext.table([self.samples, "\n"], self.n_draws)])

    def summary(self, levels: tuple[float, ...]) -> dict:
        return {
            "n_draws": self.n_draws,
            "seed": self.seed,
            "mode": self.mode,
            "mean": self.mean,
            "stddev": self.stddev,
            "clamp_count": self.clamp_count,
            "quantiles": {
                repr(lvl): empirical_exceedance_quantile(self, lvl) for lvl in levels
            },
        }


def _gamma_scalings(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    # mean-1 scaling: shape alpha, scale 1/alpha
    return rng.gamma(alpha, 1.0 / alpha, size=size)


def _count_cdf(total: float, alpha: float | None) -> np.ndarray | None:
    """CDF table of a count-first part's count, or None if it would pass MAX_TABLE entries.

    The count is Poisson(total) for the pool (alpha None) and, with the gamma
    scaling integrated out, negative binomial NB(alpha, beta = total / alpha)
    otherwise: P(n) / P(n-1) is total / n, or (alpha + n - 1) / n * q with
    q = beta / (1 + beta). The log ratios are summed outward from the mode,
    so no weight underflows where the mass is and the sums stay small there.
    Where r = max(P(n+1) / P(n), q) is below 1, it bounds every later ratio,
    so the mass past n is at most P(n) r / (1 - r). The table ends at the
    first n where that is below 2**-53 of the mass up to n, in exactly 1.0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a total of 0 has log -inf and a count of 0
        if alpha is None:
            log_q, spread = -math.inf, total
        else:
            beta = total / alpha
            log_q, spread = float(np.log(beta) - np.log1p(beta)), total * (1.0 + beta)
        n = int(min(total + 8.0 * math.sqrt(spread) + 32.0, MAX_TABLE))  # the mean plus 8 sd, doubled if short
        while True:
            k = np.arange(1.0, n)
            steps = np.log(total) - np.log(k) if alpha is None else np.log1p((alpha - 1.0) / k) + log_q
            mode = int(np.count_nonzero(steps > 0.0))  # the ratios fall through 1 or stay below it
            log_w = np.concatenate((-steps[:mode][::-1].cumsum()[::-1], [0.0], steps[mode:].cumsum()))
            cdf = np.exp(log_w).cumsum()
            log_r = np.maximum(steps, log_q)
            # the log of the bound on the mass past each n, over the mass up to n; NaN where r passes 1
            past = log_w[:-1] + log_r - np.log(-np.expm1(log_r)) - np.log(cdf[:-1])
            ends = np.flatnonzero(past <= -53.0 * math.log(2.0))
            if ends.size:
                break
            if n == MAX_TABLE:
                return None
            n = min(2 * n, MAX_TABLE)
    size = int(ends[0]) + 1
    return cdf[:size] / cdf[size - 1]  # a new array of the table's own length


def _count_first(mu: np.ndarray) -> bool:
    # a total count plus one pick per default against one Poisson per band, per draw
    return 1.0 + float(mu.sum()) < mu.size


def _cpu_count() -> int:
    # the CPUs this process may run on, which can be fewer than the machine has
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _rate_blocks(m: int, cols: int) -> list[slice]:
    # row slices of an (m x cols) matrix, at most BLOCK_VARIATES variates each unless one row has more
    rows = max(1, BLOCK_VARIATES // cols)
    return [slice(r, min(r + rows, m)) for r in range(0, m, rows)]


def _row_blocks(counts: np.ndarray):
    # (lo, hi, picks) over whole rows, at most BLOCK_VARIATES picks each unless one row has more
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        start = ends[lo] - counts[lo]
        hi = max(lo + 1, int(ends.searchsorted(start + BLOCK_VARIATES, side="right")))
        yield lo, hi, int(ends[hi - 1] - start)
        lo = hi


def _alias_table(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table of the law mu / sum(mu): (keep, alias) per column.

    A pick lands on a column j uniformly, keeps j with probability keep[j]
    and takes alias[j] otherwise. Each column j then receives keep[j] plus
    the 1 - keep[i] of every column i aliased to it, which is
    mu_j * size / sum(mu) up to rounding.
    """
    size = mu.size
    scaled = (mu * (size / mu.sum())).tolist()
    keep, alias = np.ones(size), np.arange(size)
    small = [j for j, x in enumerate(scaled) if x < 1.0]
    large = [j for j, x in enumerate(scaled) if x >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        keep[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0  # what g has left to fill, less rounding than g - (1 - s)
        (small if scaled[g] < 1.0 else large).append(g)
    return keep, alias  # a column left on either list after rounding keeps itself


def _pick(rng: np.random.Generator, picks: int, keep: np.ndarray, alias: np.ndarray) -> np.ndarray:
    # one uniform per pick: u * size, below size since u <= 1 - 2**-53, splits into a column and a
    # fraction that is uniform on [0, 1) given the column
    x = rng.random(picks)
    x *= keep.size
    col = x.astype(np.intp)
    x -= col
    return np.where(x < keep[col], col, alias[col])


def _add_count_first(rng: np.random.Generator, alpha: float | None, table: tuple, payouts: np.ndarray,
                     acc: np.ndarray) -> None:
    # one total per draw, by a search of its CDF table or, where there is none, a Poisson at sum(mu) = total
    # times a gamma scaling; then a band per default from mu's alias table
    cdf, total, keep, alias = table
    m = acc.size
    if cdf is not None:
        counts = cdf.searchsorted(rng.random(m), side="right")
    else:
        counts = rng.poisson(total if alpha is None else total * _gamma_scalings(rng, alpha, m), m)
    for lo, hi, picks in _row_blocks(counts):
        paid = payouts[_pick(rng, picks, keep, alias)]
        acc[lo:hi] += np.bincount(np.repeat(np.arange(hi - lo), counts[lo:hi]), paid, hi - lo)
        del paid  # before the next block's draws, which would otherwise sit beside it


def _draw_chunk(child: np.random.SeedSequence, acc: np.ndarray, plans: list, bernoulli: bool) -> int:
    # adds one chunk's losses into acc, drawn from the chunk's own seed; returns its clamp count
    rng = np.random.default_rng(child)
    m = acc.size
    clamped = 0
    for alpha, per_unit, payouts, table in plans:
        if table is not None:
            _add_count_first(rng, alpha, table, payouts, acc)
            continue
        scale = _gamma_scalings(rng, alpha, m) if alpha is not None else np.ones(m)
        for rs in _rate_blocks(m, per_unit.size):
            rates = np.outer(scale[rs], per_unit)
            # the hits overwrite their rates, so the sum makes no float64 copy of them
            if bernoulli:
                # a uniform on [0, 1) falls below a rate of 1 or more, so such a rate needs no clamp, only a count;
                # rounding is monotone: no rate passes 1 unless the largest scaling times the largest rate does
                if scale[rs].max() * per_unit.max() > 1.0:
                    clamped += int(np.count_nonzero(rates > 1.0))
                np.less(rng.random(rates.shape), rates, out=rates)
            else:
                np.copyto(rates, rng.poisson(rates))
            # numpy's own loop, not a BLAS gemv, so a row's sum depends only on its values
            acc[rs] += np.einsum("ij,j->i", rates, payouts)
    return clamped


def simulate(
    banded: BandedPortfolio,
    cfg: SimConfig,
    sectored: SectoredPortfolio | None = None,
) -> EmpiricalDistribution:
    """Draw aggregate losses under the gamma-mixed portfolio model.

    poisson-banded pays v*unit per default of the banded model, drawing the
    parts both backends compute, in order: _Cumulant.pool, the one compound
    Poisson of the unmixed bands and the folded gamma sectors' clusters, then
    each gamma sector of _Cumulant.parts(). Given a part's gamma scaling G
    (1 for the pool), its levels' default counts are independent Poissons
    with means mu_v*G, which is the same law as one total count
    N ~ Poisson(G*sum(mu)) with each default at level v with probability
    mu_v/sum(mu). Each part draws whichever way takes fewer expected
    variates per draw: count-first (N, then one uniform per default picked
    from a Walker/Vose alias table of mu) when 1 + sum(mu) < its level
    count, G and one Poisson per level otherwise. The picks depend on G
    only through N, so a count-first part draws N from its own law with G
    integrated out, Poisson(sum(mu)) for the pool and negative binomial
    NB(alpha, sum(mu)/alpha) for a gamma part: one uniform per draw,
    searched in a CDF table built once per run. A part whose table would
    pass MAX_TABLE entries draws G, then N ~ Poisson(G*sum(mu)). A per-band
    part consumes the random stream as version 0.1.0 did; a count-first
    part draws N for every draw of the chunk, then its picks in row order.

    bernoulli-exact needs the pre-banding sectored view that banded was
    built from and pays the raw sub-exposure on each Bernoulli default,
    a sure default where a scaled probability passes 1; it counts those.

    The per-band and Bernoulli draws build each part's (draws x columns)
    rates in row blocks of at most BLOCK_VARIATES variates, small enough
    to stay in cache, which consume the random stream in row order
    whatever their size. The chunks are drawn on as many threads as the
    process may run on, at most one per chunk; the calling thread draws
    one share of them. Samples depend on neither that count nor the BLAS:
    each chunk draws from its own child seed into its own rows, a row sums
    in numpy's own loops, and poisson-banded sums whole units, exact below
    2**53, and multiplies by unit once.
    """
    bernoulli = cfg.mode == "bernoulli-exact"
    if not bernoulli:
        levels, _, rates, _ = banded._cumulant.pool
        pool = [(levels, rates, None)] if levels.size else []  # drawn first, with no gamma scaling
        plans = []  # payouts in whole units, so that any order of summing them is exact
        for vs, mu, alpha in pool + [(vs, mu, gamma[0]) for vs, _, mu, gamma in banded._cumulant.parts()]:
            total = float(mu.sum())
            table = (_count_cdf(total, alpha), total, *_alias_table(mu)) if _count_first(mu) else None
            plans.append((alpha, mu, vs.astype(float), table))
    else:
        if sectored is None:
            raise InputError("bernoulli-exact mode needs the sectored (pre-banding) portfolio")
        subs = sectored.subs
        if (sectored.names != banded.names or sectored.obligor_ids != banded.obligor_ids
                or not np.array_equal(subs["sector"], banded.sub_sector)):
            raise InputError("bernoulli-exact mode needs the sectored portfolio the banded one was built from")
        shapes = [None, *banded._cumulant.alpha.tolist()]  # the engine's gamma shape of each part
        ends = np.cumsum(np.bincount(subs["sector"], minlength=len(banded.names)))[:-1]
        plans = [(shapes[part], rates, amounts, None) for part, rates, amounts in zip(
            banded._cumulant.sector_part.tolist(), np.split(subs["loss_rate"], ends), np.split(subs["amount"], ends))]

    losses = np.zeros(cfg.n_draws)
    n_chunks = math.ceil(cfg.n_draws / CHUNK_DRAWS)
    children = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    workers = min(_cpu_count(), n_chunks)
    start = threading.Barrier(workers)  # no share draws before each has its thread: a pool reuses an idle one

    def draw_share(share: int) -> int:
        start.wait()
        # chunks share, share + workers, ...; each adds into its own slice of losses
        return sum(_draw_chunk(children[i], losses[i * CHUNK_DRAWS : (i + 1) * CHUNK_DRAWS], plans, bernoulli)
                   for i in range(share, n_chunks, workers))

    if workers == 1:
        clamped = draw_share(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # at module level it would slow every CLI start

        with ThreadPoolExecutor(workers - 1) as pool:
            try:
                others = [pool.submit(draw_share, share) for share in range(1, workers)]
                clamped = draw_share(0) + sum(f.result() for f in others)
            except BaseException:  # a thread that could not start, or an interrupt, must not leave shares waiting
                start.abort()
                raise
    losses.sort()
    if not bernoulli:
        top = float(losses[-1])
        if not top * banded.unit < math.inf:  # in Python floats, which overflow without a warning
            raise ModelError(
                f"a sampled loss of {top:.0f} units overflows at unit {banded.unit!r}; use a smaller unit (--unit)"
            )
        losses *= banded.unit
    return EmpiricalDistribution(samples=losses, clamp_count=clamped, mode=cfg.mode, seed=cfg.seed)


def empirical_exceedance_quantile(emp: EmpiricalDistribution, eps: float) -> float:
    """Smallest sample value x with (count of samples > x) / n <= eps."""
    if not 0.0 < eps < 1.0:
        raise InputError(f"exceedance probability must be in (0, 1), got {eps}")
    # first index whose right-rank reaches n*(1-eps); the 1e-9 guards float fuzz
    k = math.ceil(emp.n_draws * (1.0 - eps) - 1e-9) - 1
    return float(emp.samples[max(k, 0)])


@dataclass(frozen=True)
class CompareRow:
    level: float
    analytic_quantile: float
    empirical_quantile: float
    stderr_loss: float
    flagged: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Analytic vs Monte Carlo quantiles with binomial standard-error bands."""

    rows: tuple[CompareRow, ...]
    total_exposure: float | None = None
    analytic_p_exceeds_total: float | None = None
    empirical_p_exceeds_total: float | None = None

    @property
    def flag_count(self) -> int:
        return sum(1 for r in self.rows if r.flagged)

    def to_json_dict(self) -> dict:
        return {
            "rows": [dict(vars(r)) for r in self.rows],
            "flag_count": self.flag_count,
            "total_exposure": self.total_exposure,
            "analytic_p_exceeds_total": self.analytic_p_exceeds_total,
            "empirical_p_exceeds_total": self.empirical_p_exceeds_total,
        }


def _quantile_band(dist: LossDistribution, eps: float, se_prob: float) -> tuple[float, float | None]:
    # invert the analytic tail at eps +/- 3 standard errors; on a jagged
    # lattice pmf this is the honest fluctuation range of the MC quantile
    lo = exceedance_quantile(dist, min(eps + 3.0 * se_prob, 1.0 - 1e-12))
    try:
        hi = exceedance_quantile(dist, eps - 3.0 * se_prob)
    except ModelError:  # tail not resolvable at this n: nonpositive, truncated or below the pmf
        hi = None
    return lo, hi


def compare(
    analytic: LossDistribution,
    empirical: EmpiricalDistribution,
    levels: list[float] | tuple[float, ...],
    total_exposure: float | None = None,
) -> ComparisonReport:
    """Per level: analytic and empirical quantiles plus a 3-sigma MC band.

    The binomial standard error sqrt(eps*(1-eps)/n) is translated to loss
    units through the average pmf density across the tail band it spans;
    a level is flagged when the empirical quantile falls outside that
    three-standard-error band around the analytic value. Where the pmf
    cannot resolve eps - 3 standard errors (few draws at a deep level) the
    band is one-sided: stderr_loss is (analytic quantile - lower edge) / 3,
    and the level is flagged only below the lower edge.
    """
    rows = []
    for eps in levels:
        eps = float(eps)
        q_analytic = exceedance_quantile(analytic, eps)
        q_empirical = empirical_exceedance_quantile(empirical, eps)
        se_prob = math.sqrt(eps * (1.0 - eps) / empirical.n_draws)
        band_lo, band_hi = _quantile_band(analytic, eps, se_prob)
        if band_hi is None:
            stderr_loss, flagged = (q_analytic - band_lo) / 3.0, q_empirical < band_lo
        else:
            stderr_loss, flagged = (band_hi - band_lo) / 6.0, not band_lo <= q_empirical <= band_hi
        rows.append(
            CompareRow(
                level=eps,
                analytic_quantile=q_analytic,
                empirical_quantile=q_empirical,
                stderr_loss=stderr_loss,
                flagged=flagged,
            )
        )
    if total_exposure is None:
        return ComparisonReport(rows=tuple(rows))
    return ComparisonReport(
        rows=tuple(rows),
        total_exposure=total_exposure,
        analytic_p_exceeds_total=analytic.prob_exceeds(total_exposure),
        empirical_p_exceeds_total=empirical.prob_exceeds(total_exposure),
    )

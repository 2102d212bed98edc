"""Discretize exposures into bands and compute the aggregate loss pmf two ways.

The Panjer recursion evaluates the compound distribution coefficient by
coefficient; the FFT backend inverts the closed-form generating function at
the roots of unity. Both must agree to within total variation 1e-8.

Run from the repository root:  python demos/02_banding_and_loss_distribution.py
"""

import math
import time

import numpy as np

import agririsk as ar

portfolio = ar.load_portfolio(ar.bundled_dataset_path())
sectored = ar.assign_sectors(portfolio, ar.SectorAssignment("crop-livestock"))
banded = ar.band_exposures(sectored, unit=1.0)

print("banded portfolio (unit = 1.0 million):")
# one row per sector from the sub-exposure columns; a band is a sector's distinct level
k, level = banded.sub_sector, banded.sub_level
defaults = np.bincount(k, weights=banded.sub_epsilon / level, minlength=len(banded.names))
alphas = iter(banded._cumulant.alpha.tolist())  # the engine's gamma shapes cv**-2, one per mixed sector
for i, (name, cv) in enumerate(zip(banded.names, banded.cv.tolist())):
    alpha = next(alphas) if cv > 0.0 else math.inf
    print(
        f"  {name:<10} bands {np.unique(level[k == i]).size:3d}  "
        f"expected defaults {defaults[i]:.4f}  cv {cv:.3f}  alpha {alpha:.3f}"
    )
print(f"total expected defaults: {ar.poisson_rate(banded):.4f}")
print(f"banding preserves expected loss: {banded.expected_loss:.4f}")
print()

grid = ar.auto_grid_size(banded)
print(f"auto grid size: {grid}")

t0 = time.perf_counter()
dist_fft = ar.loss_dist_fft(banded, grid)
t_fft = time.perf_counter() - t0
t0 = time.perf_counter()
dist_panjer = ar.loss_dist_sector(banded, grid)
t_panjer = time.perf_counter() - t0

tv = 0.5 * np.abs(dist_fft.pmf - dist_panjer.pmf).sum()
print(f"fft    {t_fft:6.2f}s   truncation {dist_fft.truncation_mass:.2e}   tail_bound {dist_fft.tail_bound:.2e}")
print(f"panjer {t_panjer:6.2f}s   truncation {dist_panjer.truncation_mass:.2e}   tail_bound {dist_panjer.tail_bound:.2e}")
print(f"total variation between backends: {tv:.2e}")
print()

mom = ar.moments(dist_fft)
mean_exact, var_exact = ar.analytic_moments(banded)
print(f"pmf mean     {mom.mean:14.4f}   analytic {mean_exact:14.4f}")
print(f"pmf variance {mom.variance:14.1f}   analytic {var_exact:14.1f}")
print()

print("the gamma mixing fattens the tail relative to the pure Poisson model:")
dist_poisson = ar.loss_dist_poisson(banded, grid)
for eps in (0.05, 0.01):
    q_mixed = ar.exceedance_quantile(dist_fft, eps)
    q_poisson = ar.exceedance_quantile(dist_poisson, eps)
    print(f"  eps={eps:<6} mixed {q_mixed:9.0f}   poisson {q_poisson:9.0f}")

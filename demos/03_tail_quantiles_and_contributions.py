"""Tail quantiles of the aggregate loss and their allocation back to obligors.

Each obligor's contribution is its expected loss plus a variance-
proportional share of the unexpected loss, so contributions sum exactly to
the portfolio VaR at every level.

Run from the repository root:  python demos/03_tail_quantiles_and_contributions.py
"""

import numpy as np

import agririsk as ar

LEVELS = [0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001]

# bundled dataset, crop-livestock sectors, unit 1, FFT backend, auto grid
run = ar.run_pipeline()
dist = run.dist

mom = ar.moments(dist)
print(f"mean indemnity payment: {mom.mean:10.2f}")
print()
print("exceedance quantiles (million):")
for eps in LEVELS:
    print(f"  P(loss > q) <= {eps:<7} q = {ar.exceedance_quantile(dist, eps):10.0f}")
print()

table = ar.risk_contributions(run.banded, dist, [0.1, 0.05, 0.01], run.portfolio.names)
print("risk contributions (million):")
print(f"  {'id':<5} {'expected':>10} {'at 0.1':>12} {'at 0.05':>12} {'at 0.01':>12}")
# the table holds columns: expected_loss (obligors,) and contributions (obligors, levels)
for i in np.argsort(-table.contributions[:, -1], kind="stable")[:8]:
    c1, c2, c3 = table.contributions[i]
    print(f"  {table.obligor_ids[i]:<5} {table.expected_loss[i]:10.2f} {c1:12.2f} {c2:12.2f} {c3:12.2f}")
print("  ...")
print(
    f"  TOTAL {table.total_expected_loss:10.2f} "
    + " ".join(f"{t:12.2f}" for t in table.totals)
)
print()

# each column adds left to right, obligor by obligor
for level, column_sum, var_q in zip(table.levels, np.cumsum(table.contributions, axis=0)[-1], table.totals):
    print(f"additivity at {level}: sum {column_sum:.6f} == VaR {var_q:.6f}")

"""Load the bundled 22-state portfolio, check its internal consistency, discount it.

Run from the repository root:  python demos/01_portfolio_and_validation.py
"""

import numpy as np

import agririsk as ar

portfolio = ar.load_portfolio(ar.bundled_dataset_path())

print(f"obligors: {len(portfolio)}  (EUR million)")
print(f"total exposure      : {portfolio.total_exposure:12.2f}")
print(f"total expected loss : {portfolio.total_expected_loss:12.2f}")
print()

print("top five expected losses:")
# the portfolio is stored as columns: one tuple of ids, one of names, one float array per field
expected = portfolio.exposure * portfolio.mean_loss_rate
for i in np.argsort(-expected, kind="stable")[:5]:
    oid, name = portfolio.ids[i], portfolio.names[i]
    print(f"  {oid}  {name:<15} exposure {portfolio.exposure[i]:10.2f}  EL {expected[i]:8.2f}")
print()

# Consistency checks: declared expected losses and crop/livestock ratio sums.
# The bundled file stores rates backed out of the declared expected-loss
# column, so only the ratio-sum findings fire.
findings = ar.validate_portfolio(portfolio, tol=0.02)
print(f"validation findings at tol=0.02: {len(findings)}")
for f in findings:
    print(f"  [{f.severity}] {f.obligor_id} {f.kind}: {f.message}")
print()

# Present-value discounting scales every exposure by exp(-rate * horizon).
discounted = ar.discount_exposures(portfolio, ar.DiscountSpec(rate=0.03, horizon=1.0))
print("discounting at 3% for one year:")
print(f"  exposure  {portfolio.total_exposure:12.2f} -> {discounted.total_exposure:12.2f}")
print(f"  expected loss scales identically: {discounted.total_expected_loss:10.2f}")

"""Load the bundled 22-state portfolio, check its internal consistency, discount it.

Run from the repository root:  python demos/01_portfolio_and_validation.py
"""

import agririsk as ar

portfolio = ar.load_portfolio(ar.bundled_dataset_path())

print(f"obligors: {len(portfolio)}  (EUR million)")
print(f"total exposure      : {portfolio.total_exposure:12.2f}")
print(f"total expected loss : {portfolio.total_expected_loss:12.2f}")
print()

print("top five expected losses:")
ranked = sorted(portfolio, key=lambda o: o.expected_loss, reverse=True)
for o in ranked[:5]:
    print(f"  {o.id}  {o.name:<15} exposure {o.exposure:10.2f}  EL {o.expected_loss:8.2f}")
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

"""Validate the analytic engine against a seeded Monte Carlo simulator.

Two modes: poisson-banded samples the exact model the engine evaluates, so
quantiles must agree within Monte Carlo error; bernoulli-exact samples true
0/1 defaults on raw exposures, which quantifies the Poisson approximation
itself (its losses are capped at total exposure, the Poisson model's are not).

Run from the repository root:  python demos/04_monte_carlo_cross_check.py
"""

import agririsk as ar

N_DRAWS = 200_000
SEED = 20110505
LEVELS = [0.1, 0.05, 0.01]

# bundled dataset, crop-livestock sectors, unit 1, FFT backend, auto grid
run = ar.run_pipeline()

print(f"{N_DRAWS} draws, seed {SEED}")
print()

for mode in ("poisson-banded", "bernoulli-exact"):
    emp = ar.simulate(run.banded, ar.SimConfig(N_DRAWS, SEED, mode), run.sectored)
    report = ar.compare(run.dist, emp, LEVELS, total_exposure=run.portfolio.total_exposure)
    print(f"{mode}: sample mean {emp.mean:.2f}, clamped probabilities {emp.clamp_count}")
    for row in report.rows:
        marker = "FLAG" if row.flagged else "ok"
        print(
            f"  eps={row.level:<6} analytic {row.analytic_quantile:9.0f}  "
            f"mc {row.empirical_quantile:9.0f}  3se {3 * row.stderr_loss:8.1f}  {marker}"
        )
    print(
        f"  P(loss > total exposure): analytic {report.analytic_p_exceeds_total:.2e}, "
        f"empirical {report.empirical_p_exceeds_total:.2e}"
    )
    print()

print("the poisson-banded run must carry zero flags; bernoulli-exact flags in the")
print("deep tail measure the Poisson approximation error, not an engine defect")

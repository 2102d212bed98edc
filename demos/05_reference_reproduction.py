"""Reproduce the published tail percentiles bundled with the example dataset.

data/reference_percentiles.csv carries the aggregate indemnity percentiles
published for this portfolio. The publication does not document the sector
structure, the unit size, or how sector rate volatilities were aggregated,
so an exact match is not expected; this script runs the three sector modes
the engine supports, tabulates the deviations, and writes the attempt to
reports/tail_reproduction.{md,json}.

Run from the repository root:  python demos/05_reference_reproduction.py
"""

import csv
import json
from pathlib import Path

import agririsk as ar

REPO = Path(__file__).resolve().parent.parent
LEVELS = [0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001]
UNIT = 1.0


def load_reference() -> tuple[float, dict[float, float]]:
    with open(REPO / "data" / "reference_percentiles.csv", newline="") as fh:
        rows = {float(r["exceedance_prob"]): float(r["indemnity_payment"]) for r in csv.DictReader(fh)}
    # the 0.5 row of the published table is (numerically) the mean,
    # not a tail quantile of this right-skewed distribution
    return rows.pop(0.5), rows


def run_mode(mode: str) -> dict:
    run = ar.run_pipeline(unit=UNIT, sector_mode=mode, backend="fft")
    dist = run.dist
    return {
        "mode": mode,
        "unit": UNIT,
        "backend": "fft",
        "grid_size": run.config["grid_size"],
        "truncation_mass": float(dist.truncation_mass),
        "mean": ar.moments(dist).mean,
        "quantiles": {repr(eps): ar.exceedance_quantile(dist, eps) for eps in LEVELS},
    }


def main() -> None:
    mean_ref, reference = load_reference()
    runs = [run_mode(mode) for mode in ("crop-livestock", "per-obligor", "single")]

    lines = []
    lines.append("# Tail reproduction attempt: bundled EU-22 dataset")
    lines.append("")
    lines.append("Target values: `data/reference_percentiles.csv`, the aggregate")
    lines.append("indemnity percentiles published for this portfolio. The publication")
    lines.append("leaves the sector structure, the unit size L, and the rate-volatility")
    lines.append("aggregation unspecified, so this is a documented best-effort run of")
    lines.append("every sector mode the engine supports, not a pass/fail gate.")
    lines.append("")
    lines.append("## Configuration")
    lines.append("")
    lines.append(f"- input: `data/table1_eu22.csv` (rates backed out of the declared")
    lines.append(f"  expected-loss column; see README data notes)")
    lines.append(f"- unit L = {UNIT} million, backend fft, grid auto, no discounting")
    lines.append("- sector rates: exposure-weighted means of the obligor rates")
    lines.append(f"- package version {ar.__version__}")
    lines.append("")
    lines.append(f"- mean: computed {runs[0]['mean']:.2f} in every mode (mixing preserves")
    lines.append(f"  the mean) vs published 0.5-row {mean_ref:.2f}; the 0.5 row is read as")
    lines.append("  the mean, not as a median")
    lines.append("")
    for run in runs:
        lines.append(f"## Mode: {run['mode']}")
        lines.append("")
        lines.append(f"grid {run['grid_size']}, truncation mass {run['truncation_mass']:.2e}")
        lines.append("")
        lines.append("| exceedance | computed | published | deviation |")
        lines.append("|-----------:|---------:|----------:|----------:|")
        for eps in LEVELS:
            got = run["quantiles"][repr(eps)]
            want = reference[eps]
            lines.append(f"| {eps} | {got:.0f} | {want:.2f} | {100 * (got - want) / want:+.1f}% |")
        lines.append("")
    lines.append("## Reading")
    lines.append("")
    lines.append("per-obligor sectors (one gamma factor per country, volatility from the")
    lines.append("country's own stddev column) track the published tail closest, within")
    lines.append("a few percent through the 2.5% level; crop-livestock pooling thins the")
    lines.append("tail and the single-sector extreme fattens it beyond the 1% level.")
    lines.append("None of the modes reproduces the published values exactly, consistent")
    lines.append("with the under-specification listed above.")
    lines.append("")

    reports = REPO / "reports"
    reports.mkdir(exist_ok=True)
    (reports / "tail_reproduction.md").write_text("\n".join(lines), encoding="utf-8")
    payload = {"reference": {repr(k): v for k, v in reference.items()}, "mean_reference": mean_ref, "runs": runs}
    (reports / "tail_reproduction.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print("\n".join(lines))
    print(f"wrote reports/tail_reproduction.md and reports/tail_reproduction.json")


if __name__ == "__main__":
    main()

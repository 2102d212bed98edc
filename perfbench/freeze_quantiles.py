"""Write eu22_quantiles.json: the EU-22 quantile grid points every run checks.

    python3 perfbench/freeze_quantiles.py

Run on the commit whose quantiles are the reference. Covers every workload
operation on the bundled data, keyed by sector mode, unit and backend, and
computes each quantile through the public API rather than through ops.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import agririsk as ar  # noqa: E402

import ops  # noqa: E402
from bench import config_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    frozen: dict[str, list[list[float]]] = {}
    portfolio = ar.load_portfolio(ar.bundled_dataset_path())
    for workload in WORKLOADS.values():
        for cmd in workload.ops:
            if "--input" in cmd:
                continue
            args = ops.parse_command([part.format(seed="1") for part in cmd])
            key = config_key(args)
            if key in frozen:
                continue
            sectored = ar.assign_sectors(portfolio, ar.SectorAssignment(args.sector_mode))
            banded = ar.band_exposures(sectored, args.unit)
            grid = ar.auto_grid_size(banded)
            backend = ar.loss_dist_fft if args.backend == "fft" else ar.loss_dist_sector
            dist = backend(banded, grid)
            levels = [float(part) for part in args.levels.split(",")]
            frozen[key] = [[lvl, ar.exceedance_quantile(dist, lvl)] for lvl in levels]
            print(key, frozen[key])
    path = HERE / "eu22_quantiles.json"
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

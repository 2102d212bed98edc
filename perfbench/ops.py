"""Benchmark operations: one analyze, dist or simulate command run in-process.

Each operation calls the same public agririsk functions, in the same order,
as ``agririsk.cli.cmd_analyze``, ``cmd_dist`` and ``cmd_simulate``, and writes
the same output files. Command-line flags are parsed by the CLI's own parser,
so an operation and a ``python -m agririsk.cli`` run with the same flags
should write byte-identical files. Each call into a layer sits inside a
tracer span named ``<layer>.<call>``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

from agririsk import analytics, engine, portfolio as pf
from agririsk.cli import build_parser
from agririsk.simulate import (
    ComparisonReport,
    EmpiricalDistribution,
    SimConfig,
    compare as mc_compare,
    simulate as mc_simulate,
)

KINDS = ("analyze", "dist", "simulate")


def parse_command(argv: list[str]) -> argparse.Namespace:
    """Parse a CLI command line such as ``["analyze", "--unit", "10"]``."""
    args = build_parser().parse_args(argv)
    if args.command not in KINDS:
        raise ValueError(f"not a benchmark operation: {args.command}")
    if args.sector_rate:
        raise ValueError("--sector-rate is not used by any workload")
    return args


@dataclass
class Result:
    """Everything an operation produced, kept for the output checks."""

    portfolio: pf.Portfolio  # after discounting, as the CLI reports it
    sectored: pf.SectoredPortfolio
    banded: engine.BandedPortfolio
    dist: engine.LossDistribution
    levels: tuple[float, ...]
    report: analytics.RiskReport | None = None
    empirical: EmpiricalDistribution | None = None
    comparison: ComparisonReport | None = None
    files: list[str] = field(default_factory=list)


def _pipeline(args: argparse.Namespace, tracer) -> tuple[Result, list, dict]:
    levels = tuple(float(part) for part in args.levels.split(",") if part.strip())
    source = Path(args.input) if args.input else pf.bundled_dataset_path()
    with tracer.span("portfolio.parse"):
        port = pf.load_portfolio(source)
    with tracer.span("portfolio.validate"):
        findings = pf.validate_portfolio(port, args.tolerance)
    with tracer.span("portfolio.discount"):
        discounted = pf.discount_exposures(port, pf.DiscountSpec(args.rate, args.horizon))
    with tracer.span("portfolio.assign_sectors"):
        sectored = pf.assign_sectors(discounted, pf.SectorAssignment(args.sector_mode, None))
    with tracer.span("engine.band"):
        banded = engine.band_exposures(sectored, args.unit)
    with tracer.span("engine.grid"):
        grid_size = engine.auto_grid_size(banded) if args.grid == "auto" else int(args.grid)
    if args.backend == "fft":
        with tracer.span("engine.fft"):
            dist = engine.loss_dist_fft(banded, grid_size)
    else:
        with tracer.span("engine.panjer"):
            dist = engine.loss_dist_sector(banded, grid_size)
    config = {
        "input": str(source),
        "unit": args.unit,
        "sector_mode": args.sector_mode,
        "sector_rates": None,
        "rate": args.rate,
        "horizon": args.horizon,
        "backend": args.backend,
        "grid_size": grid_size,
        "levels": list(levels),
        "tolerance": args.tolerance,
    }
    return Result(discounted, sectored, banded, dist, levels), findings, config


def _write(out: Path, files: dict[str, str], tracer) -> list[str]:
    with tracer.span("cli.write"):
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    return list(files)


def analyze(args: argparse.Namespace, out: Path, tracer) -> Result:
    result, findings, config = _pipeline(args, tracer)
    with tracer.span("analytics.build_report"):
        report = analytics.build_report(
            result.portfolio, result.banded, result.dist, result.levels, config, findings
        )
    with tracer.span("analytics.serialize"):
        files = {
            "report.json": report.to_json(),
            "quantiles.csv": report.quantiles_csv(),
            "contributions.csv": report.contributions_csv(),
        }
    result.report = report
    result.files = _write(out, files, tracer)
    return result


def dist(args: argparse.Namespace, out: Path, tracer) -> Result:
    result, _, _ = _pipeline(args, tracer)
    with tracer.span("engine.to_csv"):
        files = {"distribution.csv": result.dist.to_csv()}
    result.files = _write(out, files, tracer)
    analytics.moments(result.dist)  # the CLI prints the pmf moments
    return result


def simulate(args: argparse.Namespace, out: Path, tracer) -> Result:
    result, _, config = _pipeline(args, tracer)
    cfg = SimConfig(n_draws=args.n_draws, seed=args.seed, mode=args.mc_mode)
    with tracer.span("simulate.draw"):
        empirical = mc_simulate(result.banded, cfg, result.sectored)
    with tracer.span("simulate.compare"):
        comparison = mc_compare(
            result.dist, empirical, result.levels, total_exposure=result.portfolio.total_exposure
        )
    payload = {
        "config": config | {"seed": args.seed, "n_draws": args.n_draws, "mc_mode": args.mc_mode},
        "sample": empirical.summary(result.levels),
        "comparison": comparison.to_json_dict(),
    }
    files = {"mc_summary.json": json.dumps(payload, sort_keys=True, indent=2) + "\n"}
    result.empirical, result.comparison = empirical, comparison
    result.files = _write(out, files, tracer)
    return result


def run(args: argparse.Namespace, tracer) -> Result:
    """Run one operation, writing to ``args.out``; the whole call is its root span."""
    with tracer.span(f"cli.{args.command}"):
        command = {"analyze": analyze, "dist": dist, "simulate": simulate}[args.command]
        return command(args, Path(args.out), tracer)

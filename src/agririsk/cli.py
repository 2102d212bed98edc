"""Command line front end: portfolio CSV in, loss-distribution reports out.

Exit codes: 0 success, 1 pipeline/model error, 2 usage or input error.
All commands are deterministic for a fixed flag set (including --seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytics, engine, portfolio as pf
from .errors import InputError, ModelError
from .simulate import SimConfig, compare as mc_compare, simulate as mc_simulate

DEFAULT_LEVELS = (0.1, 0.05, 0.025, 0.01, 0.005, 0.0025, 0.001)


def _parse_levels(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        levels = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        parser.error(f"--levels must be a comma-separated list of numbers, got {text!r}")
    if not levels:
        parser.error("--levels must name at least one level")
    for lvl in levels:
        if not 0.0 < lvl < 1.0:
            parser.error(f"levels must lie in (0, 1), got {lvl}")
    return levels


def _parse_sector_rates(
    entries: list[str] | None, parser: argparse.ArgumentParser
) -> dict[str, tuple[float, float]] | None:
    if not entries:
        return None
    rates: dict[str, tuple[float, float]] = {}
    for entry in entries:
        try:
            name, values = entry.split("=", 1)
            mu_text, sigma_text = values.split(",", 1)
            rates[name.strip()] = (float(mu_text), float(sigma_text))
        except ValueError:
            parser.error(f"--sector-rate must look like name=mu,sigma, got {entry!r}")
    return rates


def _add_pipeline_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--input", default=None, help="portfolio CSV (default: bundled dataset)")
    cmd.add_argument("--unit", type=float, default=1.0, help="exposure band size L (default 1.0)")
    cmd.add_argument(
        "--sector-mode",
        choices=pf.SECTOR_MODES,
        default="crop-livestock",
        help="sector structure (default crop-livestock)",
    )
    cmd.add_argument(
        "--sector-rate",
        action="append",
        metavar="NAME=MU,SIGMA",
        help="override a sector's mean,stddev loss rate; repeatable",
    )
    cmd.add_argument("--rate", type=float, default=0.0, help="discount rate (default 0)")
    cmd.add_argument("--horizon", type=float, default=0.0, help="discount horizon in years (default 0)")
    cmd.add_argument("--backend", choices=("panjer", "fft"), default="fft")
    cmd.add_argument("--grid", default="auto", help="grid size: auto or an integer (default auto)")
    cmd.add_argument(
        "--levels",
        default=",".join(repr(lvl) for lvl in DEFAULT_LEVELS),
        help="comma-separated exceedance levels",
    )
    cmd.add_argument("--out", default="out", help="output directory (default ./out)")
    cmd.add_argument("--tolerance", type=float, default=0.02, help="validation tolerance (default 0.02)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agririsk",
        description="Aggregate indemnity-loss distributions and tail-risk allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a portfolio CSV for internal consistency")
    validate.add_argument("--input", default=None, help="portfolio CSV (default: bundled dataset)")
    validate.add_argument("--tolerance", type=float, default=0.02)

    analyze = sub.add_parser("analyze", help="full pipeline: quantiles and risk contributions")
    _add_pipeline_flags(analyze)

    sim = sub.add_parser("simulate", help="Monte Carlo cross-check of the analytic distribution")
    _add_pipeline_flags(sim)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--n-draws", type=int, default=100_000)
    sim.add_argument("--mc-mode", choices=pf.MC_MODES, default="poisson-banded")
    sim.add_argument("--dump-samples", default=None, help="optionally write raw samples CSV here")

    dist = sub.add_parser("dist", help="dump the full loss pmf as CSV")
    _add_pipeline_flags(dist)

    return parser


def _input_path(args: argparse.Namespace) -> Path:
    return Path(args.input) if args.input else pf.bundled_dataset_path()


def _run_pipeline(args: argparse.Namespace, parser: argparse.ArgumentParser):
    levels = _parse_levels(args.levels, parser)
    overrides = _parse_sector_rates(args.sector_rate, parser)
    if args.grid != "auto":
        try:
            grid = int(args.grid)
        except ValueError:
            parser.error(f"--grid must be auto or an integer, got {args.grid!r}")
        if grid < 1:
            parser.error(f"--grid must be >= 1, got {grid}")

    source = _input_path(args)
    port = pf.load_portfolio(source)
    findings = pf.validate_portfolio(port, args.tolerance)
    discounted = pf.discount_exposures(port, pf.DiscountSpec(args.rate, args.horizon))
    sectored = pf.assign_sectors(discounted, pf.SectorAssignment(args.sector_mode, overrides))
    banded = engine.band_exposures(sectored, args.unit)
    grid_size = engine.auto_grid_size(banded) if args.grid == "auto" else int(args.grid)
    if args.backend == "fft":
        dist = engine.loss_dist_fft(banded, grid_size)
    else:
        dist = engine.loss_dist_sector(banded, grid_size)
    config = {
        "input": str(source),
        "unit": args.unit,
        "sector_mode": args.sector_mode,
        "sector_rates": None if overrides is None else {k: list(v) for k, v in overrides.items()},
        "rate": args.rate,
        "horizon": args.horizon,
        "backend": args.backend,
        "grid_size": grid_size,
        "levels": list(levels),
        "tolerance": args.tolerance,
    }
    return discounted, findings, sectored, banded, dist, levels, config


def _print_findings(findings) -> None:
    for f in findings:
        print(f"{f.severity} {f.kind} {f.obligor_id}: {f.message}")
    print(f"{len(findings)} finding(s)")


def cmd_validate(args, parser) -> int:
    port = pf.load_portfolio(_input_path(args))
    findings = pf.validate_portfolio(port, args.tolerance)
    _print_findings(findings)
    return 1 if any(f.severity == "error" for f in findings) else 0


def cmd_analyze(args, parser) -> int:
    discounted, findings, _, banded, dist, levels, config = _run_pipeline(args, parser)
    report = analytics.build_report(discounted, banded, dist, levels, config, findings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "quantiles.csv").write_text(report.quantiles_csv(), encoding="utf-8")
    (out / "contributions.csv").write_text(report.contributions_csv(), encoding="utf-8")
    print(f"portfolio expected loss {report.contributions.total_expected_loss:.6f}")
    print(f"distribution mean {report.moments.mean:.6f} variance {report.moments.variance:.6f}")
    print("exceedance_prob,loss")
    for q in report.quantiles:
        print(f"{q.exceedance_prob!r},{q.loss:.6f}")
    print(f"wrote report.json, quantiles.csv, contributions.csv to {out}")
    return 0


def cmd_dist(args, parser) -> int:
    _, _, _, _, dist, _, _ = _run_pipeline(args, parser)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "distribution.csv").write_text(dist.to_csv(), encoding="utf-8")
    mom = analytics.moments(dist)
    print(f"mean {mom.mean!r}")
    print(f"variance {mom.variance!r}")
    print(f"truncation_mass {dist.truncation_mass!r}")
    print(f"tail_bound {dist.tail_bound!r}")
    print(f"wrote distribution.csv to {out}")
    return 0


def cmd_simulate(args, parser) -> int:
    if args.n_draws < 1:
        parser.error(f"--n-draws must be >= 1, got {args.n_draws}")
    cfg = SimConfig(n_draws=args.n_draws, seed=args.seed, mode=args.mc_mode)
    discounted, _, sectored, banded, dist, levels, config = _run_pipeline(args, parser)
    empirical = mc_simulate(banded, cfg, sectored)
    comparison = mc_compare(dist, empirical, levels, total_exposure=discounted.total_exposure)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": config | {"seed": args.seed, "n_draws": args.n_draws, "mc_mode": args.mc_mode},
        "sample": empirical.summary(levels),
        "comparison": comparison.to_json_dict(),
    }
    (out / "mc_summary.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    if args.dump_samples:
        lines = ["loss"] + [repr(x) for x in empirical.samples]
        Path(args.dump_samples).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("level,analytic,empirical,stderr_loss,flagged")
    for row in comparison.rows:
        print(
            f"{row.level!r},{row.analytic_quantile:.6f},{row.empirical_quantile:.6f},"
            f"{row.stderr_loss:.6f},{row.flagged}"
        )
    print(f"clamped probabilities: {empirical.clamp_count}")
    print(f"flags: {comparison.flag_count}")
    print(f"wrote mc_summary.json to {out}")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "dist": cmd_dist,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except ModelError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

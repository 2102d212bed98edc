"""Command line front end: portfolio CSV in, loss-distribution reports out.

Exit codes: 0 success, 1 pipeline/model error, 2 usage or input error.
All commands are deterministic for a fixed flag set (including --seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytics, portfolio as pf
from .engine import _BACKENDS, run_pipeline
from .errors import InputError, ModelError
from .simulate import SimConfig, compare as mc_compare, simulate as mc_simulate

_DEFAULTS = run_pipeline.__kwdefaults__  # every pipeline keyword is keyword-only and has a flag

# A command's result, which main alone writes and prints: exit status, files in --out (name: text, in
# write order), printed lines, and texts for paths of their own (--dump-samples: text), which come only
# with --out files.
Output = tuple[int, dict[str, str], list[str], dict[str, str]]


def _parse_levels(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        parser.error(f"--levels must be a comma-separated list of numbers, got {text!r}")


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
            rate = (float(mu_text), float(sigma_text))
        except ValueError:
            parser.error(f"--sector-rate must look like name=mu,sigma, got {entry!r}")
        if name.strip() in rates:
            parser.error(f"--sector-rate repeats sector {name.strip()!r}")
        rates[name.strip()] = rate
    return rates


def _pipeline_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The pipeline flags as ``run_pipeline`` keywords; a malformed flag exits 2."""
    levels = _parse_levels(args.levels, parser)
    sector_rates = _parse_sector_rates(args.sector_rate, parser)
    grid = None
    if args.grid != "auto":
        try:
            grid = int(args.grid)
        except ValueError:
            parser.error(f"--grid must be auto or an integer, got {args.grid!r}")
        if grid < 1:
            parser.error(f"--grid must be >= 1, got {grid}")
    parsed = {"levels": levels, "sector_rates": sector_rates, "grid": grid}
    # every other keyword has a flag of its own name
    return {name: parsed[name] if name in parsed else getattr(args, name) for name in _DEFAULTS}


def _add_pipeline_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--input", default=None, help="portfolio CSV (default: bundled dataset)")
    cmd.add_argument("--unit", type=float, default=_DEFAULTS["unit"], help="exposure band size L (default %(default)s)")
    cmd.add_argument(
        "--sector-mode",
        choices=pf.SECTOR_MODES,
        default=_DEFAULTS["sector_mode"],
        help="sector structure (default %(default)s)",
    )
    cmd.add_argument(
        "--sector-rate",
        action="append",
        metavar="NAME=MU,SIGMA",
        help="override a sector's mean,stddev loss rate; repeatable",
    )
    cmd.add_argument("--rate", type=float, default=_DEFAULTS["rate"], help="discount rate (default %(default)s)")
    cmd.add_argument(
        "--horizon", type=float, default=_DEFAULTS["horizon"], help="discount horizon in years (default %(default)s)"
    )
    cmd.add_argument("--backend", choices=tuple(_BACKENDS), default=_DEFAULTS["backend"])
    cmd.add_argument("--grid", default="auto", help="grid size: auto or an integer (default auto)")
    cmd.add_argument(
        "--levels",
        default=",".join(repr(lvl) for lvl in _DEFAULTS["levels"]),
        help="comma-separated exceedance levels",
    )
    cmd.add_argument("--out", default="out", help="output directory (default ./out)")
    cmd.add_argument(
        "--tolerance", type=float, default=_DEFAULTS["tolerance"], help="validation tolerance (default %(default)s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agririsk",
        description="Aggregate indemnity-loss distributions and tail-risk allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a portfolio CSV for internal consistency")
    validate.add_argument("--input", default=None, help="portfolio CSV (default: bundled dataset)")
    validate.add_argument("--tolerance", type=float, default=_DEFAULTS["tolerance"])

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


def cmd_validate(args, parser) -> Output:
    port = pf.load_portfolio(args.input or pf.bundled_dataset_path())
    findings = pf.validate_portfolio(port, args.tolerance)
    lines = [f"{f.severity} {f.kind} {f.obligor_id}: {f.message}" for f in findings]
    status = 1 if any(f.severity == "error" for f in findings) else 0
    return status, {}, [*lines, f"{len(findings)} finding(s)"], {}


def cmd_analyze(args, parser) -> Output:
    run = run_pipeline(**_pipeline_args(args, parser))
    report = analytics.build_report(run.portfolio, run.banded, run.dist, run.levels, run.config, run.findings)
    files = {"report.json": report.to_json(), "quantiles.csv": report.quantiles_csv(),
             "contributions.csv": report.contributions_csv()}
    lines = [f"portfolio expected loss {report.contributions.total_expected_loss:.6f}",
             f"distribution mean {report.moments.mean:.6f} variance {report.moments.variance:.6f}",
             *files["quantiles.csv"].splitlines()]
    return 0, files, lines, {}


def cmd_dist(args, parser) -> Output:
    dist = run_pipeline(**_pipeline_args(args, parser)).dist
    mom = analytics.moments(dist)
    lines = [f"mean {mom.mean!r}", f"variance {mom.variance!r}",
             f"truncation_mass {dist.truncation_mass!r}", f"tail_bound {dist.tail_bound!r}"]
    return 0, {"distribution.csv": dist.to_csv()}, lines, {}


def cmd_simulate(args, parser) -> Output:
    cfg = SimConfig(n_draws=args.n_draws, seed=args.seed, mode=args.mc_mode)
    run = run_pipeline(**_pipeline_args(args, parser))
    empirical = mc_simulate(run.banded, cfg, run.sectored)
    comparison = mc_compare(run.dist, empirical, run.levels, total_exposure=run.portfolio.total_exposure)
    payload = {
        "config": run.config | {"seed": args.seed, "n_draws": args.n_draws, "mc_mode": args.mc_mode},
        "sample": empirical.summary(run.levels),
        "comparison": comparison.to_json_dict(),
    }
    try:
        summary = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # JSON has no inf or NaN
        raise ModelError("mc_summary.json would hold a number that is not finite, "
                         "such as a sample mean or stddev past the largest float") from None
    lines = ["level,analytic,empirical,stderr_loss,flagged"]
    lines += [f"{row.level!r},{row.analytic_quantile:.6f},{row.empirical_quantile:.6f},"
              f"{row.stderr_loss:.6f},{row.flagged}" for row in comparison.rows]
    lines += [f"clamped probabilities: {empirical.clamp_count}", f"flags: {comparison.flag_count}"]
    samples = {args.dump_samples: empirical.to_csv()} if args.dump_samples else {}
    return 0, {"mc_summary.json": summary + "\n"}, lines, samples


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
        status, files, lines, elsewhere = _COMMANDS[args.command](args, parser)
        if files:  # made only now that every text exists, so a refused run writes nothing
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            # after --out is made, which may hold a path, and before --out's files, so that a failed path leaves none
            for path, text in elsewhere.items():
                Path(path).write_text(text, encoding="utf-8")
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8")
            lines.append(f"wrote {', '.join(files)} to {out}")
        print(*lines, sep="\n")
    except (ModelError, InputError, OSError, UnicodeDecodeError) as exc:
        print(exc, file=sys.stderr)
        return 1 if isinstance(exc, ModelError) else 2
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One workload run: inputs, timed passes, output checks, subprocess timings, metrics.

Imports agririsk, so run.py puts the in-repo ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import math
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

import numpy as np

from agririsk import analytics, engine

import checks
import ops
import reference
import spans
from book import generate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3  # timed passes a run makes, after its warm-up, before the seconds budget may end it
OVERHEAD = "trace.overhead_s"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _line(name: str, values: list[float], unit: str) -> str:
    q1, med, q3 = _quartiles(values)
    return f"{name} {med!r} {unit} (median of {len(values)}; q1 {q1!r}, q3 {q3!r})"


def _source_digest() -> str:
    """Digest of the agririsk package and the benchmark: counts repeat for the same code."""
    files = [p for p in (SRC / "agririsk").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    digest = hashlib.sha256()
    for path in sorted([*files, *HERE.glob("*.py")]):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({p for line in maps for p in line.split()[5:] if "openblas" in p.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _scipy_version() -> str | None:
    try:  # from package metadata: the harness itself never imports scipy
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "nproc": os.cpu_count(),
        "openblas_threads": _openblas_threads(),
    }


def config_key(args) -> str:
    """Key of an EU-22 configuration in eu22_quantiles.json."""
    return f"{args.sector_mode}/{args.unit!r}/{args.backend}"


def quantiles_of(args, result: ops.Result) -> list[tuple[float, float]]:
    """(level, loss) pairs the operation reported, or computed from its pmf for dist."""
    if args.command == "analyze":
        return [(q.exceedance_prob, q.loss) for q in result.report.quantiles]
    if args.command == "simulate":
        return [(row.level, row.analytic_quantile) for row in result.comparison.rows]
    return [(lvl, analytics.exceedance_quantile(result.dist, lvl)) for lvl in result.levels]


def op_medians(passes: list[dict]) -> list[float]:
    """Each operation's median time over the passes, NaN if it never succeeded."""
    return [
        statistics.median(ok) if (ok := [t for t in times if t is not None]) else math.nan
        for times in zip(*(p["op_s"] for p in passes))
    ]


class Runner:
    """One run of one workload: its inputs, passes, checks and subprocess samples.

    ``attempted`` and ``failed`` count operations; a failed run-level check
    (a subprocess, CLI parity, repeated counts) is kept in ``run_problems``.
    """

    def __init__(self, name: str, seed: int, seconds: float, traced: bool, work: Path):
        self.name, self.seed, self.workload = name, seed, WORKLOADS[name]
        self.seconds, self.traced, self.work = seconds, traced, work
        self.expected = {
            key: [tuple(pair) for pair in pairs]
            for key, pairs in json.loads((HERE / "eu22_quantiles.json").read_text()).items()
        }
        self.fill = {"seed": str(seed), "book": ""}
        if self.workload.book_obligors:
            book = work / "book.csv"
            bundled = SRC / "agririsk" / "data" / "table1_eu22.csv"
            book.write_text(generate(bundled, self.workload.book_obligors, seed), encoding="utf-8")
            self.fill["book"] = str(book)
        self.op_args = [self._parse(cmd, work / "ops" / str(i)) for i, cmd in enumerate(self.workload.ops)]
        self.tracer = spans.Tracer() if traced else spans.NullTracer()
        self.references: dict[str, np.ndarray] = {}
        self.attempted = 0
        self.failed = 0
        self.run_problems: list[str] = []
        self.kernel_s: list[float] = []  # reference kernel samples, before each operation and setup

    def command_line(self, cmd: tuple[str, ...], out: Path) -> list[str]:
        return [*(part.format(**self.fill) for part in cmd), "--out", str(out)]

    def _parse(self, cmd: tuple[str, ...], out: Path):
        return ops.parse_command(self.command_line(cmd, out))

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    def _run_fail(self, what: str, problems: list[str]) -> None:
        for problem in problems:
            self.run_problems.append(f"{what}: {problem}")
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    # -- per-operation checks and counts ----------------------------------------

    def _check(self, args, result: ops.Result) -> list[str]:
        dist, banded = result.dist, result.banded
        mean_money, _ = engine.analytic_moments(banded)
        problems = checks.pmf(dist.pmf, mean_money / banded.unit)
        got = quantiles_of(args, result)
        if args.command == "analyze":
            table = result.report.contributions
            columns = [[row.contributions[i] for row in table.rows] for i in range(len(table.levels))]
            problems += checks.contributions(columns, [loss for _, loss in got])
        elif args.command == "simulate":
            emp = result.empirical
            problems += checks.mc_mean(emp.mean, emp.stddev, emp.n_draws, mean_money)
        key = config_key(args)
        if args.input is None:  # a bundled EU-22 config
            if key in self.expected:
                problems += checks.quantiles(got, self.expected[key])
            else:
                problems.append(f"no stored quantiles for EU-22 config {key}")
        if args.backend == "panjer":
            if key not in self.references:
                self.references[key] = engine.loss_dist_fft(banded, dist.pmf.size).pmf
            problems += checks.total_variation(dist.pmf, self.references[key])
        return problems

    @staticmethod
    def _counts(args, result: ops.Result) -> Counter:
        """Work done by one operation, computed from array sizes.

        ``engine.panjer_terms`` counts the recursion's multiply-adds, not the
        convolutions that combine sectors; ``engine.fft_bytes`` is the size of
        the complex arrays transformed, not bytes measured moving.
        """
        c: Counter = Counter()
        banded, grid = result.banded, result.dist.pmf.size
        active = [s for s in banded.sectors if any(b.epsilon > 0.0 for b in s.bands)]
        c["portfolio.obligors"] = len(result.portfolio)
        c["portfolio.sub_exposures"] = sum(len(s.subs) for s in result.sectored.sectors)
        c["engine.grid_points"] = grid
        c["engine.useful_points"] = checks.useful_points(result.dist.pmf)
        if args.backend == "fft":
            c["engine.fft_transforms"] = len(active) + 1  # one per sector and the inverse
            c["engine.fft_bytes"] = c["engine.fft_transforms"] * grid * 16  # complex128
        else:
            for s in active:
                dots = 1 if s.params.is_poisson else 2  # negative binomial: two dot products
                c["engine.panjer_terms"] += dots * sum(
                    grid - b.v for b in s.bands if b.epsilon > 0.0 and b.v < grid
                )
        if args.command == "analyze":
            c["analytics.contribution_rows"] = len(result.report.contributions.rows)
        elif args.command == "dist":
            c["engine.csv_rows"] = grid
        else:
            emp = result.empirical
            c["simulate.draws"] = emp.n_draws
            c["simulate.clamp_count"] = emp.clamp_count
            c["simulate.flags"] = result.comparison.flag_count
            if args.mc_mode == "poisson-banded":  # a gamma scaling per mixed sector, a count per band
                per_draw = sum(sum(b.epsilon > 0.0 for b in s.bands) for s in active)
                per_draw += sum(not s.params.is_poisson for s in active)
            else:  # a gamma scaling per mixed sector, a uniform per sub-exposure
                mixed = {s.name: not s.params.is_poisson for s in banded.sectors}
                per_draw = sum(len(s.subs) + mixed[s.name] for s in result.sectored.sectors)
            c["simulate.variates"] = emp.n_draws * per_draw
        c["cli.bytes_written"] = sum((Path(args.out) / f).stat().st_size for f in result.files)
        return c

    # -- passes -------------------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        tracer = self.tracer if traced else spans.NullTracer()
        kinds = dict.fromkeys(ops.KINDS, 0.0)
        op_s: list[float | None] = [None] * len(self.op_args)
        counts: Counter = Counter()
        op_ids = set()
        for i, args in enumerate(self.op_args):
            if traced:
                tracer.op += 1
                op_ids.add(tracer.op)
            self.kernel_s.append(reference.sample())
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = ops.run(args, tracer)
            except Exception:
                self._fail(f"op {i} {args.command}", [traceback.format_exc()])
                continue
            op_s[i] = time.perf_counter() - t0
            kinds[args.command] += op_s[i]
            problems = self._check(args, result)
            if problems:
                self._fail(f"op {i} {args.command}", problems)
            counts.update(self._counts(args, result))
        return {
            "traced": traced,
            "kinds": kinds,
            "op_s": op_s,
            "seconds": sum(kinds.values()),
            "counts": counts,
            "ops": op_ids,
        }

    # -- subprocesses -------------------------------------------------------------

    def _subprocess(self, argv: list[str], what: str) -> float | None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        done = subprocess.run(
            argv, cwd=self.work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            self._run_fail(what, [f"exit {done.returncode}: {done.stderr.strip()}"])
            return None
        return elapsed

    def _parity(self, cli_args, cli_out: Path) -> None:
        """Byte-compare a CLI subprocess's files with those of the same-flag operation."""
        flags = {k: v for k, v in vars(cli_args).items() if k != "out"}
        args = next((a for a in self.op_args if {k: v for k, v in vars(a).items() if k != "out"} == flags), None)
        if args is None:
            self._run_fail("parity", [f"no operation has the flags {flags}"])
            return
        op_out = Path(args.out)
        if args.command == "analyze":
            problems = checks.same_files(cli_out, op_out, ["quantiles.csv", "contributions.csv"])
        elif args.command == "dist":
            problems = checks.same_files(cli_out, op_out, ["distribution.csv"])
        else:
            problems = checks.same_json_blocks(
                cli_out / "mc_summary.json", op_out / "mc_summary.json", ["sample", "comparison"]
            )
        if problems:
            self._run_fail("parity", problems)

    def _cli(self, cmd: tuple[str, ...], out: Path, parity: bool) -> float | None:
        argv = [sys.executable, "-m", "agririsk.cli", *self.command_line(cmd, out)]
        elapsed = self._subprocess(argv, f"cli {' '.join(cmd)}")
        if elapsed is not None and parity:
            self._parity(self._parse(cmd, out), out)
        return elapsed

    # -- the run --------------------------------------------------------------------

    def run(self, setups: int) -> tuple[list[dict], list[float], float | None]:
        """A warm-up pass and the CLI run, then rounds of one setup sample and one pass.

        The warm-up pass is checked and counted but not timed. Setup samples
        are spread over the whole run. Timed passes go on until MIN_PASSES
        have run and ``seconds`` of pass time have elapsed; a traced run
        alternates traced and untraced passes, starting traced. A reference
        kernel sample precedes each operation and setup sample. The CLI run's
        files and those of every parity command are compared with the
        operations'.
        """
        warmup = self.run_pass(traced=False)
        cli = self._cli(self.workload.cli, self.work / "cli", parity=True)
        passes: list[dict] = []
        setup: list[float] = []
        import_argv = [sys.executable, "-c", "import agririsk, agririsk.cli"]
        elapsed = 0.0
        for rnd in itertools.count():
            more = len(passes) < MIN_PASSES or elapsed < self.seconds
            if not more and rnd >= setups:
                break
            if rnd < setups:
                self.kernel_s.append(reference.sample())
                if (t := self._subprocess(import_argv, "setup")) is not None:
                    setup.append(t)
            if more:
                t0 = time.perf_counter()
                passes.append(self.run_pass(traced=self.traced and len(passes) % 2 == 0))
                elapsed += time.perf_counter() - t0
        for j, cmd in enumerate(self.workload.parity):
            self._cli(cmd, self.work / "parity" / str(j), parity=True)
        if any(p["counts"] != warmup["counts"] for p in passes):
            self._run_fail("counts", ["per-pass counts did not repeat exactly"])
        self._check_counts_repeat(warmup["counts"])
        return passes, setup, cli

    def speed_scale(self) -> float:
        """Factor from this run's times to seconds at the reference speed (see reference.py)."""
        return reference.REFERENCE_S / statistics.median(self.kernel_s)

    def _check_counts_repeat(self, counts: Counter) -> None:
        """Counts must equal those of any earlier run of the same code, workload and seed."""
        path = WORK / f"counts-{self.name}-seed{self.seed}-{_source_digest()}.json"
        mine = {key: int(value) for key, value in sorted(counts.items())}
        if path.is_file():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            if earlier != mine:
                self._run_fail("counts", [f"counts differ from the earlier run recorded in {path}"])
        else:
            path.write_text(json.dumps(mine) + "\n", encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(name, seed, seconds, traced, work)
        print(f"workload {name} seed {seed} trace {int(traced)}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        values = _traced_values(runner, spec, name, seed) if traced else _untraced_values(runner)
        wanted = spec["per_layer" if traced else "end_to_end"]
        print(f"fail_frac {runner.failed / runner.attempted!r} "
              f"({runner.failed} of {runner.attempted} operations failed)")
        print(f"run-level checks failed: {len(runner.run_problems)}")
        return {
            "correct": runner.failed == 0
            and not runner.run_problems
            and all(math.isfinite(values.get(m["name"], math.nan)) for m in wanted),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {
                m["name"]: {"value": values.get(m["name"], math.nan), "unit": m["unit"]} for m in wanted
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced_values(runner: Runner) -> dict[str, float]:
    """Timed metrics in seconds at the reference speed (see reference.py).

    ``pass_s`` sums each operation's median time over the timed passes and
    ``setup_s`` is the median import time, both times the run's speed
    scale. Unscaled per-pass medians and quartiles are printed beside them.
    """
    passes, setup, cli = runner.run(SETUP_REPEATS)
    scale = runner.speed_scale()
    print(f"speed scale {scale!r}: reference {reference.REFERENCE_S!r} s over "
          + _line("the kernel", runner.kernel_s, "s"))
    medians = [t * scale for t in op_medians(passes)]
    for kind in ops.KINDS:
        per_kind = [p["kinds"][kind] for p in passes]
        if any(per_kind):
            total = sum(t for t, a in zip(medians, runner.op_args) if a.command == kind)
            print(f"{kind}_s {total!r} s (median of {len(passes)} passes, summed over operations); "
                  + _line("unscaled per pass", per_kind, "s"))
    values = {"pass_s": sum(medians)}
    print(f"pass_s {values['pass_s']!r} s (median of {len(passes)} passes, summed over "
          f"{len(medians)} operations); " + _line("unscaled per pass", [p["seconds"] for p in passes], "s"))
    if setup:
        values["setup_s"] = statistics.median(setup) * scale
        print(f"setup_s {values['setup_s']!r} s; " + _line("unscaled", setup, "s"))
    if cli is not None:  # one sample: printed, too noisy for a bounded metric
        command = " ".join(part.format(**runner.fill) for part in runner.workload.cli)
        print(f"cli_s {cli!r} s unscaled (one cold run of: agririsk {command})")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb {values['peak_rss_mb']!r} MB")
    return values


def _traced_values(runner: Runner, spec: dict, name: str, seed: int) -> dict[str, float]:
    """Per-layer self times: median over the traced passes, times the run's speed scale."""
    passes, _, _ = runner.run(setups=0)
    scale = runner.speed_scale()
    traced = [p for p in passes if p["traced"]]
    self_times = [runner.tracer.self_times(p["ops"]) for p in traced]
    counts = passes[0]["counts"]
    values = {}
    for metric in spec["per_layer"]:
        key, unit = metric["name"], metric["unit"]
        if key == OVERHEAD:
            continue
        if unit == "s":  # self time of the span named <layer>.<call>
            samples = [st.get(key.removesuffix("_s"), 0.0) for st in self_times]
            values[key] = statistics.median(samples) * scale
            print(f"{key} {values[key]!r} s (median of {len(samples)} traced passes)")
        else:
            if key == "engine.grid_useful_frac":
                values[key] = counts["engine.useful_points"] / counts["engine.grid_points"]
            else:
                values[key] = counts.get(key, 0)
            print(f"{key} {values[key]!r} {unit}")
    traced_s = sum(op_medians(traced)) * scale
    untraced_s = sum(op_medians([p for p in passes if not p["traced"]])) * scale
    values[OVERHEAD] = traced_s - untraced_s
    print(f"{OVERHEAD} {values[OVERHEAD]!r} s (traced pass {traced_s!r} s, untraced {untraced_s!r} s)")
    trace_file = WORK / f"trace-{name}-seed{seed}.json"
    runner.tracer.write(trace_file)
    print(f"spans written to {trace_file}")
    return values

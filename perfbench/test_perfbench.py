"""Tests of the benchmark itself: each output check can fail, inputs and counts repeat.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import agririsk as ar  # noqa: E402

import bench  # noqa: E402
import book  # noqa: E402
import checks  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from bench import Runner, config_key, op_medians, quantiles_of  # noqa: E402

BUNDLED = SRC / "agririsk" / "data" / "table1_eu22.csv"


def _run(tmp_path: Path, *cmd: str) -> tuple[object, ops.Result]:
    args = ops.parse_command([*cmd, "--unit", "10", "--out", str(tmp_path)])
    return args, ops.run(args, spans.NullTracer())


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("analyze"), "analyze")


def _analytic_mean_units(result: ops.Result) -> float:
    return ar.analytic_moments(result.banded)[0] / result.banded.unit


def test_pmf_check_passes_and_fails_on_a_moved_entry(analyzed):
    _, result = analyzed
    pmf = result.dist.pmf
    mean = _analytic_mean_units(result)
    assert checks.pmf(pmf, mean) == []
    raised = pmf.copy()
    raised[int(np.argmax(pmf))] += 1e-6
    assert any("sums to" in p for p in checks.pmf(raised, mean))
    lowered = pmf.copy()
    lowered[int(2 * mean)] -= 1e-6  # leaves the sum below 1, moves the mean
    assert any("mean" in p for p in checks.pmf(lowered, mean))


def test_total_variation_fails_on_a_moved_entry(analyzed):
    _, result = analyzed
    reference = result.dist.pmf
    assert checks.total_variation(reference.copy(), reference) == []
    moved = reference.copy()
    moved[int(np.argmax(reference))] -= 1e-6
    assert checks.total_variation(moved, reference)


def test_panjer_matches_fft_within_the_tv_bound(tmp_path):
    _, result = _run(tmp_path, "analyze", "--backend", "panjer", "--sector-mode", "single")
    reference = ar.loss_dist_fft(result.banded, result.dist.pmf.size).pmf
    assert checks.total_variation(result.dist.pmf, reference) == []


def test_quantile_check_fails_one_grid_point_off(analyzed):
    args, result = analyzed
    stored = json.loads((HERE / "eu22_quantiles.json").read_text())[config_key(args)]
    expected = [tuple(pair) for pair in stored]
    got = quantiles_of(args, result)
    assert checks.quantiles(got, expected) == []
    shifted = list(got)
    level, loss = shifted[3]
    shifted[3] = (level, loss + result.banded.unit)
    assert checks.quantiles(shifted, expected)


def test_contribution_check_fails_one_row_off_by_1e6(analyzed):
    _, result = analyzed
    table = result.report.contributions
    columns = [[row.contributions[i] for row in table.rows] for i in range(len(table.levels))]
    var = [q.loss for q in result.report.quantiles]
    assert checks.contributions(columns, var) == []
    for column in columns:
        biggest = int(np.argmax(column))
        column[biggest] *= 1.0 + 1e-6
    assert len(checks.contributions(columns, var)) == len(columns)


def test_mc_mean_check_fails_five_stderr_off():
    assert checks.mc_mean(100.0, 10.0, 10_000, 100.3) == []
    assert checks.mc_mean(100.0, 10.0, 10_000, 100.5)


def test_same_files_detects_one_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "q.csv").write_text("level,loss\n0.1,5490.000000\n")
    (b / "q.csv").write_text("level,loss\n0.1,5490.000000\n")
    assert checks.same_files(a, b, ["q.csv"]) == []
    (b / "q.csv").write_text("level,loss\n0.1,5490.000001\n")
    assert checks.same_files(a, b, ["q.csv"])


def test_useful_points_stops_at_the_negligible_tail():
    pmf = np.zeros(16)
    pmf[:4] = 0.25
    assert checks.useful_points(pmf) == 3
    pmf[10] = 1e-11
    assert checks.useful_points(pmf) == 10


def test_book_is_seeded_and_uses_bundled_rates_only():
    first = book.generate(BUNDLED, 500, seed=7)
    assert first == book.generate(BUNDLED, 500, seed=7)
    assert first != book.generate(BUNDLED, 500, seed=8)
    portfolio = ar.parse_portfolio(first)
    bundled = ar.load_portfolio(BUNDLED)
    pairs = {(o.mean_loss_rate, o.loss_rate_stddev) for o in bundled}
    assert {(o.mean_loss_rate, o.loss_rate_stddev) for o in portfolio} <= pairs
    findings = ar.validate_portfolio(portfolio)
    assert not [f for f in findings if f.severity == "error"]


def test_counts_repeat_exactly(tmp_path):
    counts = [Runner._counts(*_run(tmp_path / str(i), "analyze", "--sector-mode", "per-obligor")) for i in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["engine.fft_transforms"] == 22 + 1
    assert counts[0]["analytics.contribution_rows"] == 22


def test_counts_must_repeat_across_runs_of_one_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    first, second = (Runner("eu22-panjer", 5, 1.0, False, tmp_path / str(i)) for i in range(2))
    first._check_counts_repeat(Counter({"engine.grid_points": 4096}))
    second._check_counts_repeat(Counter({"engine.grid_points": 4096}))
    assert second.run_problems == []
    second._check_counts_repeat(Counter({"engine.grid_points": 8192}))
    assert second.run_problems


def test_op_medians_skip_failed_passes():
    passes = [{"op_s": [2.0, None, 0.5]}, {"op_s": [1.5, None, 0.7]}, {"op_s": [1.0, None, None]}]
    medians = op_medians(passes)
    assert medians[0] == 1.5 and medians[2] == 0.6
    assert np.isnan(medians[1])


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.op = 1
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    self_times = tracer.self_times({1})
    assert self_times["inner"] == pytest.approx(inner.end - inner.start)
    assert self_times["outer"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
